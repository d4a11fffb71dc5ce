"""Error-bounded evaluation of Siegel functions by the truncated q-product.

For (r1, r2) in [0,1)^2, not both zero, and tau in the upper half-plane:

    g(tau) = -q^{B2(r1)/2} e^{pi i r2 (r1-1)} (1 - q_z)
             prod_{n>=1} (1 - q^n q_z)(1 - q^n / q_z),

with q = e^{2 pi i tau}, q_z = e^{2 pi i z}, z = r1 tau + r2, and
B2(X) = X^2 - X + 1/6.  The product is truncated at

    M = ceil((precision + guard) ln 2 / (2 pi Im tau)) + 2.

The kernel.  With (r1, r2) = (v/N, w/N), r = q^{1/N} and zeta = e^{2 pi i/N},
q_z = zeta^w r^v, and the two factors of each term pair into one with only
non-negative powers:

    (1 - q^n q_z)(1 - q^n / q_z) = 1 - q^{n-1} s + q^{2n},
    s = q q_z + zeta^{-w} r^{N-v}.

The product P = (1 - q_z) prod_{n<=M} (...) runs in Gaussian integers
scaled by 2^W, from tables of q^n (n <= 2M), r^j (j <= N) and zeta^j that
one exp and one expjpi per CM point build and ``_form_tables`` memoizes.
Both exponents e (-12N/gcd(6, N), and +12N) are even, so the lead factor
needs no exponential: x = g^e = zeta^j r^k P^e with the integers
j = e w (v-N) / (2N) and k = e (6v^2 - 6vN + N^2) / (12N).  r^k and P^e
are binary powers of Gaussian integers with W-bit mantissas and a binary
exponent, and x is rounded once, to the stated precision.

Error budget, relative to x, with work = precision + guard bits:

- Truncation.  |q|^M <= 2^-work |q|^2, so the log-product tail is below
  2 |q|^M / (1 - |q|)^2 <= 2^{1-work} |q|^2 / (1 - |q|)^2; at a reduced
  CM point (|q| <= e^{-pi sqrt 3}) that is below 2^{-work-14}.
- Fixed point.  Write y = |q|^{1/2} and rho = |r|.  Every partial product
  of P lies between lambda = min(4/N, 1 - rho) prod_m (1 - y^m) and
  Lambda = 2 exp(2y / (1 - y)), and prod_m (1 - y^m) >= exp(-pi^2 y /
  (6 (1 - y))).  Table entries are powers of numbers of modulus <= 1, so
  q^n is off by at most about 1/(1 - y) units of 2^-W, r^j by 1/(1 - rho)
  and zeta^j by j, and each of the M + 1 factors by a few times
  N + 1/(1 - rho) + 1/(1 - y) units.  Taking
  W = work + 8 + log2((M + 1)(N + 1/(1 - rho) + 1/(1 - y)) Lambda^2 / lambda)
  (``_scale_bits``) keeps P within 2^{-work-2} of the truncated product;
  at the reduced CM points of the benchmark W - work is 17 to 24 bits.
- Powers.  r comes from exp at >= W bits, and every step of a binary power
  cuts its mantissas to W bits, so r^k and P^e amplify the errors above
  |k|-fold and |e|-fold.  With |e| <= 12N and |k| <= N^2 the total before
  the last rounding is below (|e| + |k|) 2^{-work-1}, which the default 64
  guard bits hold under 2^{-precision-1} for every level N < 2^31.

The last rounding adds at most 2^{-precision-1}, so the total relative
error of the result is below 2^-precision.
"""

from __future__ import annotations

import functools
import math
from math import gcd
from typing import NamedTuple

from mpmath.libmp import to_fixed

from .errors import EvaluationError, InputError
from .exactmath import DEFAULT_GUARD, DEFAULT_PRECISION, context, is_integral, require_level

# Reduced CM points have Im tau >= sqrt(3)/2, keeping M in the dozens even
# at very high precision; the cap only trips on near-real direct calls.
MAX_TERMS = 10**6


def _truncation_index(ctx, imag, bits: int) -> int:
    m = ctx.ceil(bits * ctx.ln2 / (2 * ctx.pi * imag)) + 2
    if m > MAX_TERMS:
        raise EvaluationError(
            f"truncation index {m} exceeds the cap of {MAX_TERMS} terms "
            f"(Im tau = {ctx.nstr(imag, 8)} is too small for {bits} working bits)"
        )
    return int(m)


def _scale_bits(imag: float, level: int, terms: int, work: int) -> int:
    """W, the fixed-point scale of the product: see the module docstring."""
    y = math.exp(-math.pi * imag)
    gap = -math.expm1(-2 * math.pi * imag / level)  # 1 - |r|
    ratio = y / (1 - y) * math.log2(math.e)
    log_big = 1 + 2 * ratio
    log_small = math.log2(min(4 / level, gap)) - math.pi**2 / 6 * ratio
    units = (terms + 1) * (level + 1 / gap + 1 / (1 - y))
    return work + 8 + math.ceil(math.log2(units) + 2 * log_big - log_small)


def _fixed(z, bits: int) -> tuple[int, int]:
    """z as a Gaussian integer scaled by 2^bits."""
    return to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits)


def _fmul(x, y, bits: int) -> tuple[int, int]:
    """The product of two Gaussian integers scaled by 2^bits."""
    (a, b), (c, d) = x, y
    return (a * c - b * d) >> bits, (a * d + b * c) >> bits


def _ladder(base, count: int, bits: int) -> tuple[tuple[int, int], ...]:
    """base^0, ..., base^count, scaled by 2^bits."""
    powers = [(1 << bits, 0)]
    for _ in range(count):
        powers.append(_fmul(powers[-1], base, bits))
    return tuple(powers)


# A Gaussian float (a, b, s) is (a + bi) 2^s; operations cut a, b to `bits` bits.


def _mul(x, y, bits: int):
    (a, b, s), (c, d, t) = x, y
    re, im = a * c - b * d, a * d + b * c
    drop = max(abs(re).bit_length(), abs(im).bit_length()) - bits
    if drop > 0:
        return re >> drop, im >> drop, s + t + drop
    return re, im, s + t


def _pow(x, n: int, bits: int):
    """x^n for an integer n >= 0, by binary powering."""
    acc = (1, 0, 0)
    while n:
        if n & 1:
            acc = _mul(acc, x, bits)
        n >>= 1
        if n:
            x = _mul(x, x, bits)
    return acc


def _div(x, y, bits: int):
    (a, b, s), (c, d, t) = x, y
    norm = c * c + d * d
    re, im = a * c + b * d, b * c - a * d
    shift = max(bits + norm.bit_length() - max(abs(re).bit_length(), abs(im).bit_length()), 0)
    return (re << shift) // norm, (im << shift) // norm, s - t - shift


class _Tables(NamedTuple):
    """What every vector on one CM point shares; pairs are scaled by 2^bits."""

    terms: int  # M
    bits: int  # W
    qpow: tuple  # q^n for n <= 2M
    rpow: tuple  # r^j = q^(j/N) for j <= N
    zeta: tuple  # zeta^j for j < N
    r: tuple  # r as a Gaussian float with W-bit mantissas, the base of r^k


# A few entries suffice, since conjugates evaluates the vectors of one form
# together; more would only carry tables from one request to the next.
@functools.lru_cache(maxsize=4)
def _form_tables(tau, level: int, work: int) -> _Tables:
    """The tables of the point whose raw ``_mpc_`` tuple at work bits is tau."""
    ctx = context(work)
    tau = ctx.make_mpc(tau)
    terms = _truncation_index(ctx, tau.imag, work)
    bits = _scale_bits(float(tau.imag), level, terms, work)
    # at least W bits, rounded up so that few contexts are ever made
    wide = context(-(-bits // 64) * 64)
    r = wide.exp(2j * wide.pi * wide.mpc(tau) / level)
    rpow = _ladder(_fixed(r, bits), level, bits)
    shift = bits - wide.mag(r)  # W-bit mantissas whatever the size of r
    return _Tables(
        terms=terms,
        bits=bits,
        qpow=_ladder(rpow[level], 2 * terms, bits),
        rpow=rpow,
        zeta=_ladder(_fixed(wide.expjpi(wide.mpf(2) / level), bits), level - 1, bits),
        r=(*_fixed(r, shift), -shift),
    )


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

    (v, w) may be any integers (or integral values) not congruent to
    (0, 0) mod N; they are reduced into [0,1)^2 before evaluating.  Both exponents make the result
    depend only on the class of +-(v/N, w/N) mod Z^2, which is what allows
    labelling conjugates by canonical vectors.
    """
    level = require_level(level)
    if not (is_integral(v) and is_integral(w)) or (v % level == 0 and w % level == 0):
        raise InputError(f"(v, w) must be integers, not both 0 mod N, got ({v}, {w})")
    v, w = int(v) % level, int(w) % level
    if not tau.imag > 0:
        raise InputError("tau must lie in the upper half-plane")
    if not is_integral(guard) or guard < 0:
        raise InputError(f"guard must be an integer >= 0 bits, got {guard}")
    e = power_exponent(level, exponent_sign)
    out = context(precision)
    work = precision + int(guard)
    tables = _form_tables(context(work).mpc(tau)._mpc_, level, work)
    N, W, one = level, tables.bits, 1 << tables.bits

    # q_z = zeta^w r^v, s = q q_z + zeta^-w r^(N-v), P = (1 - q_z) prod (...)
    qz = _fmul(tables.zeta[w], tables.rpow[v], W)
    a, b = _fmul(tables.rpow[N], qz, W)
    c, d = _fmul(tables.zeta[-w], tables.rpow[N - v], W)
    sr, si = a + c, b + d
    pr, pi = one - qz[0], -qz[1]
    qpow = tables.qpow
    for n in range(1, tables.terms + 1):
        a, b = qpow[n - 1]
        c, d = qpow[2 * n]
        fr = one + c - ((a * sr - b * si) >> W)
        fi = d - ((a * si + b * sr) >> W)
        pr, pi = (pr * fr - pi * fi) >> W, (pr * fi + pi * fr) >> W

    # x = zeta^j r^k P^e; both quotients are exact for either exponent
    j = e * w * (v - N) // (2 * N)
    k = e * (6 * v * v - 6 * v * N + N * N) // (12 * N)
    num, den = (*tables.zeta[j % N], -W), (1, 0, 0)
    for base, n in ((tables.r, k), ((pr, pi, -W), e)):
        if n > 0:
            num = _mul(num, _pow(base, n, W), W)
        else:
            den = _mul(den, _pow(base, -n, W), W)
    re, im, exp = _div(num, den, W)
    return out.mpc(out.mpf((re, exp)), out.mpf((im, exp)))
