"""Exact arithmetic substrate and the arbitrary-precision complex carrier.

Rationals are plain ``fractions.Fraction`` (always lowest terms, positive
denominator, structural equality -- exactly the canonical form needed to
dedup vectors mod Z^2).  Quadratic irrationals (p + sqrt(d))/q with d < 0
are kept exact until a working precision is chosen.  Floating values are
mpmath bignums wrapped in :class:`BigComplex`, which carries its working
precision explicitly: there is no global precision state anywhere in this
package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import InputError

DEFAULT_PRECISION = 256
DEFAULT_GUARD = 64

# Fresh contexts are cloned from mpmath.mp and never mutated afterwards.
@functools.lru_cache(maxsize=None)
def context(bits: int) -> mpmath.ctx_mp.MPContext:
    """An isolated mpmath context with working precision ``bits``."""
    if bits < 2:
        raise InputError(f"working precision must be >= 2 bits, got {bits}")
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    return ctx


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


@dataclass(frozen=True)
class BigComplex:
    """An arbitrary-precision complex value plus the precision it carries."""

    real: mpmath.mpf
    imag: mpmath.mpf
    precision: int

    @classmethod
    def from_mpc(cls, value, precision: int) -> "BigComplex":
        """Round an mpmath complex (or real) value into a BigComplex."""
        ctx = context(precision)
        value = ctx.mpc(value)
        # fadd against zero forces a rounding to ctx.prec
        return cls(ctx.fadd(value.real, 0), ctx.fadd(value.imag, 0), precision)

    def to_mpc(self, ctx=None):
        ctx = ctx if ctx is not None else context(self.precision)
        return ctx.mpc(self.real, self.imag)

    def __abs__(self) -> mpmath.mpf:
        return context(self.precision).hypot(self.real, self.imag)

    def powi(self, exponent: int) -> "BigComplex":
        """Integer power, evaluated at this value's precision."""
        ctx = context(self.precision)
        return BigComplex.from_mpc(ctx.power(self.to_mpc(ctx), int(exponent)), self.precision)


def to_complex(x: QuadIrrational, precision: int = DEFAULT_PRECISION) -> BigComplex:
    """Evaluate (p + i sqrt(|d|))/q at the given precision in bits.

    The square root is computed with 16 extra bits so the final quotient is
    within one ulp of the exact value; the result's imaginary part is > 0.
    """
    work = context(precision + 16)
    s = work.sqrt(work.mpf(-x.d))
    re = work.mpf(x.p) / x.q
    im = s / x.q
    return BigComplex.from_mpc(work.mpc(re, im), precision)


def agreement_bits(a: BigComplex, b: BigComplex) -> float:
    """Bits of relative agreement between two values (inf if identical).

    Defined as -log2(|a - b| / max(|a|, |b|)); used by consistency checks
    comparing the same quantity computed at two precisions.
    """
    prec = max(a.precision, b.precision) + 16
    ctx = context(prec)
    diff = abs(a.to_mpc(ctx) - b.to_mpc(ctx))
    scale = max(abs(a.to_mpc(ctx)), abs(b.to_mpc(ctx)))
    if diff == 0:
        return float("inf")
    if scale == 0:
        return 0.0
    return float(-ctx.log(diff / scale, 2))
