"""Measures that the tests share; unlike ``oracles``, they may use library code."""

from __future__ import annotations

from siegelcm import context


def agreement_bits(a, b) -> float:
    """Bits of relative agreement between two values (inf if identical).

    Defined as -log2(|a - b| / max(|a|, |b|)); used by consistency checks
    comparing the same quantity computed at two precisions.
    """
    ctx = context(max(a.context.prec, b.context.prec) + 16)
    a, b = ctx.mpc(a), ctx.mpc(b)
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    if diff == 0:
        return float("inf")
    if scale == 0:
        return 0.0
    return float(-ctx.log(diff / scale, 2))
