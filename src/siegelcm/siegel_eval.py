"""Error-bounded evaluation of Siegel functions by the truncated q-product.

For (r1, r2) in [0,1)^2, not both zero, and tau in the upper half-plane:

    g(tau) = -q^{B2(r1)/2} e^{pi i r2 (r1-1)} (1 - q_z)
             prod_{n>=1} (1 - q^n q_z)(1 - q^n / q_z),

with q = e^{2 pi i tau}, q_z = e^{2 pi i z}, z = r1 tau + r2, and
B2(X) = X^2 - X + 1/6.  The product is truncated at

    M = ceil((precision + guard) ln 2 / (2 pi Im tau)) + 2,

which leaves a log-product tail below sum_{n>M} (|q|^{n-r1} + |q|^{n+r1})
/ (1 - |q|) <= 4 |q|^M / (1 - |q|)^2 < 2^{-(precision+guard)/2}; the guard
bits (default 64) also absorb the accumulated rounding of the M factors.
All work happens at precision + guard bits and the result is rounded to
the stated precision, so its total relative error is below 2^-precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InputError, PrecisionUnachievableError
from .exactmath import DEFAULT_GUARD, DEFAULT_PRECISION, bernoulli2, context, rounded

# Reduced CM points have Im tau >= sqrt(3)/2, keeping M in the dozens even
# at very high precision; the cap only trips on near-real direct calls.
MAX_TERMS = 10**6


def _truncation_index(ctx, imag, bits: int) -> int:
    m = ctx.ceil(bits * ctx.ln2 / (2 * ctx.pi * imag)) + 2
    if m > MAX_TERMS:
        raise PrecisionUnachievableError(
            f"truncation index {m} exceeds the cap of {MAX_TERMS} terms "
            f"(Im tau = {ctx.nstr(imag, 8)} is too small for {bits} working bits)"
        )
    return int(m)


def _raw_product(ctx, r1: Fraction, r2: Fraction, tau, terms: int):
    """The full-context-precision value; callers round or postprocess."""

    def times_frac(value, f: Fraction):
        return value * ctx.mpf(f.numerator) / f.denominator if f else ctx.mpf(0)

    # exact rational bookkeeping first, one complex exponential afterwards:
    # -q^{B2(r1)/2} e^{pi i r2(r1-1)} = -exp(2 pi i (tau B2(r1)/2 + r2(r1-1)/2))
    half_b2 = bernoulli2(r1) / 2
    phase = Fraction(r2 * (r1 - 1), 2)
    lead = -ctx.exp(2j * ctx.pi * (times_frac(tau, half_b2) + times_frac(ctx.mpf(1), phase)))
    z = times_frac(tau, r1) + times_frac(ctx.mpf(1), r2)
    q = ctx.exp(2j * ctx.pi * tau)
    qz = ctx.exp(2j * ctx.pi * z)
    acc = 1 - qz
    qn = ctx.mpc(1)
    for _ in range(1, terms + 1):
        qn *= q
        acc *= (1 - qn * qz) * (1 - qn / qz)
    return lead * acc


def power_exponent(level: int, exponent_sign: str = "-") -> int:
    """The exponent used on g: -12N/gcd(6, N), or +12N for sign '+'."""
    if exponent_sign == "-":
        return -12 * level // gcd(6, level)
    if exponent_sign == "+":
        return 12 * level
    raise InputError(f"exponent_sign must be '+' or '-', got {exponent_sign!r}")


def siegel_power(
    v: int,
    w: int,
    tau,
    level: int,
    exponent_sign: str = "-",
    precision: int = DEFAULT_PRECISION,
    guard: int = DEFAULT_GUARD,
):
    """g_{(v/N, w/N)}(tau)^e for e = -12N/gcd(6, N), or +12N with sign '+'.

    (v, w) may be any integers not congruent to (0, 0) mod N; they are
    reduced into [0,1)^2 before evaluating.  Both exponents make the result
    depend only on the class of +-(v/N, w/N) mod Z^2, which is what allows
    labelling conjugates by canonical vectors.
    """
    if int(level) != level or level < 2:
        raise InputError(f"level must be an integer >= 2, got {level}")
    level = int(level)
    v, w = v % level, w % level
    if v == 0 and w == 0:
        raise InputError("(v, w) must be nonzero mod N")
    if not tau.imag > 0:
        raise InputError("tau must lie in the upper half-plane")
    if precision < 2 or guard < 0:
        raise InputError(f"bad precision/guard: {precision}/{guard}")
    work = precision + guard
    ctx = context(work)
    tau_c = rounded(tau, work)
    terms = _truncation_index(ctx, tau_c.imag, work)
    g = _raw_product(ctx, Fraction(v, level), Fraction(w, level), tau_c, terms)
    value = ctx.power(g, power_exponent(level, exponent_sign))
    return rounded(value, precision)
