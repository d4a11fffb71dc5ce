"""Exact arithmetic substrate and the precision-carrying complex values.

Rationals are plain ``fractions.Fraction`` (always lowest terms, positive
denominator, structural equality -- exactly the canonical form needed to
dedup vectors mod Z^2).  Quadratic irrationals (p + sqrt(d))/q with d < 0
are kept exact until a working precision is chosen.  Floating values are
mpc numbers of the context ``context(bits)`` they were rounded in, so a
value's precision is ``value.context.prec`` and they pickle: there is no
global precision state anywhere in this package.
"""

from __future__ import annotations

import copyreg
import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import InputError

DEFAULT_PRECISION = 256
DEFAULT_GUARD = 64


def is_integral(x) -> bool:
    """True if x equals an integer; false for NaN, infinities and non-numbers."""
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


# Fresh contexts are cloned from mpmath.mp and never mutated afterwards.
@functools.lru_cache(maxsize=None)
def context(bits: int) -> mpmath.ctx_mp.MPContext:
    """An isolated mpmath context with working precision ``bits``.

    The package's one precision check: ``bits`` must be an integer >= 2.
    Its mpf and mpc classes are the clone's own, which pickle cannot find
    by name, so they are pickled as (bits, raw tuple) instead.
    """
    if not is_integral(bits) or bits < 2:
        raise InputError(f"working precision must be an integer >= 2 bits, got {bits}")
    bits = int(bits)
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    copyreg.pickle(ctx.mpf, lambda x: (_unpickle, (bits, x._mpf_)))
    copyreg.pickle(ctx.mpc, lambda z: (_unpickle, (bits, z._mpc_)))
    return ctx


def require_level(N: int) -> int:
    """N as an int if it is an integer >= 2, the level of a ray class field."""
    if not is_integral(N) or N < 2:
        raise InputError(f"level must be an integer >= 2, got {N}")
    return int(N)


def _unpickle(bits: int, raw):
    ctx = context(bits)
    return ctx.make_mpc(raw) if len(raw) == 2 else ctx.make_mpf(raw)


def rounded(value, bits: int):
    """``value`` rounded to an mpc of ``context(bits)``.

    The mpc constructor rounds both parts, also of an mpc from a wider
    context; ``ctx.fadd(z, 0)`` would round only the real part.
    """
    return context(bits).mpc(value)


def bernoulli2(r: Fraction) -> Fraction:
    """Second Bernoulli polynomial r^2 - r + 1/6, evaluated exactly."""
    r = Fraction(r)
    return r * r - r + Fraction(1, 6)


@dataclass(frozen=True)
class QuadIrrational:
    """The point (p + sqrt(d))/q with d < 0, lying in the upper half-plane.

    Covers both generators of the ring of integers and the roots of reduced
    quadratic forms.  d must be a discriminant (0 or 1 mod 4) and q > 0, so
    the imaginary part sqrt(|d|)/q is positive.
    """

    p: int
    q: int
    d: int

    def __post_init__(self):
        if self.q <= 0:
            raise InputError(f"denominator must be positive, got {self.q}")
        if self.d >= 0:
            raise InputError(f"radicand must be negative, got {self.d}")
        if self.d % 4 not in (0, 1):
            raise InputError(f"radicand must be 0 or 1 mod 4, got {self.d}")


def to_complex(x: QuadIrrational, precision: int = DEFAULT_PRECISION):
    """Evaluate (p + i sqrt(|d|))/q at the given precision in bits.

    The square root is computed with 16 extra bits so the final quotient is
    within one ulp of the exact value; the result's imaginary part is > 0.
    """
    work = context(precision + 16)
    s = work.sqrt(work.mpf(-x.d))
    re = work.mpf(x.p) / x.q
    im = s / x.q
    return rounded(work.mpc(re, im), precision)


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
