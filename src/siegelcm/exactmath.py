"""Exact arithmetic substrate and the precision-carrying complex values.

Quadratic irrationals (p + sqrt(d))/q with d < 0 are kept exact until a
working precision is chosen.  Floating values are mpc numbers of the
context ``context(bits)`` they were rounded in, so a value's precision is
``value.context.prec`` and they pickle: there is no global precision state
anywhere in this package.
"""

from __future__ import annotations

import copyreg
import functools
from dataclasses import dataclass

import mpmath

from .errors import InputError

DEFAULT_PRECISION = 256
DEFAULT_GUARD = 64


def require_integers(obj, *names: str) -> None:
    """Check that the named fields of the dataclass ``obj`` are ints.

    Any other type, a bool or an integral float among them, is an InputError.
    """
    for name in names:
        x = getattr(obj, name)
        if type(x) is not int:
            raise InputError(f"{type(obj).__name__}.{name} must be an integer, got {x!r}")


# Fresh contexts are cloned from mpmath.mp and never mutated afterwards.
@functools.lru_cache(maxsize=None)
def context(bits: int) -> mpmath.ctx_mp.MPContext:
    """An isolated mpmath context with working precision ``bits``.

    The package's one precision check: ``bits`` must be an int >= 2.
    Its mpf and mpc classes are the clone's own, which pickle cannot find
    by name, so they are pickled as (bits, raw tuple) instead.
    """
    if type(bits) is not int or bits < 2:
        raise InputError(f"working precision must be an integer >= 2 bits, got {bits}")
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    copyreg.pickle(ctx.mpf, lambda x: (_unpickle, (bits, x._mpf_)))
    copyreg.pickle(ctx.mpc, lambda z: (_unpickle, (bits, z._mpc_)))
    return ctx


def require_level(N: int) -> int:
    """N itself if it is an int >= 2, the level of a ray class field."""
    if type(N) is not int or N < 2:
        raise InputError(f"level must be an integer >= 2, got {N}")
    return N


def prime_powers(N: int) -> list[tuple[int, int]]:
    """(p, p^e) for every p^e || N, N >= 1, p ascending, by trial division."""
    out, n, p = [], N, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, p**e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, n))
    return out


def _unpickle(bits: int, raw):
    ctx = context(bits)
    return ctx.make_mpc(raw) if len(raw) == 2 else ctx.make_mpf(raw)


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
        require_integers(self, "p", "q", "d")
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
    precision = context(precision).prec
    work = context(precision + 16)
    s = work.sqrt(work.mpf(-x.d))
    re = work.mpf(x.p) / x.q
    im = s / x.q
    # the mpc constructor rounds both parts from the wider context;
    # ctx.fadd(z, 0) would round only the real part
    return context(precision).mpc(re, im)


def conjugate_key(z) -> tuple:
    """A key that the mpc z and its conjugate share, and no other value.

    The raw real part, the raw imaginary part without its sign, and the
    precision: whatever depends on z only up to the sign of Im z (|z|, or
    the digits of both parts) is the same for every value with this key.
    """
    re, im = z._mpc_
    return re, im[1:], z.context.prec

