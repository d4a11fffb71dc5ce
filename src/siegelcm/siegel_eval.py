"""Error-bounded evaluation of Siegel functions by the Jacobi triple product.

For (r1, r2) in [0,1)^2, not both zero, and tau in the upper half-plane:

    g(tau) = -q^{B2(r1)/2} e^{pi i r2 (r1-1)} P,
    P = (1 - q_z) prod_{n>=1} (1 - q^n q_z)(1 - q^n / q_z),

with q = e^{2 pi i tau}, q_z = e^{2 pi i z}, z = r1 tau + r2, and
B2(X) = X^2 - X + 1/6.  Jacobi's triple product turns P into a theta series
over an eta product that depends on tau alone:

    P = S / eta,  S = sum_{n in Z} (-1)^n q^{n(n-1)/2} q_z^n,
    eta = prod_{m>=1} (1 - q^m) = sum_{k in Z} (-1)^k q^{k(3k-1)/2}.

The kernel.  With (r1, r2) = (v/N, w/N), r = q^{1/N} and zeta = e^{2 pi i/N},
q_z = zeta^w r^v, so the n-th term of S is (-1)^n zeta^{wn} r^E with the
integer E = N n(n-1)/2 + v n >= 0, and r^E = q^{E div N} r^{E mod N}.  S keeps
the terms with E <= N M, about 2 sqrt(2M) of them.  E = vn mod N, so the
r-factor of a term depends on v and its class c = n mod N alone, and w
enters only through the twist zeta^{wc}.  So every vector with that v
shares the class sums D_c = r^{vc mod N} sum_{n = c mod N} (-1)^n q^{E div N}
over the classes that some term falls in, adds them into the twist sums
T_j = sum_{wc = j mod N} D_c and, with zeta^j = C_j + i S_j, takes

    S = T_0 - T_{N/2} + sum_{0 < j < N/2} [C_j (T_j + T_{N-j}) + i S_j (T_j - T_{N-j})],

four real products for each pair of twists (T_{N/2} only for even N).
Everything runs in Gaussian integers scaled by 2^W, from tables of q^n
(n <= M), r^j (j <= N) and 1/eta (Euler's pentagonal series, then one
division) that one expjpi per CM point builds and ``_form_tables`` memoizes,
and of zeta^j, which one expjpi builds per (N, W) and ``_roots`` memoizes.
``_form_tables`` is keyed on the raw tuple of tau rounded to precision +
guard bits (``mpc_pos``), so a tau given at more bits reaches the entry
of its rounding, and a call builds and hashes no mpc to find its entry.
The one exponent of a level, e = -12N/gcd(6, N), is even, so the lead
factor needs no exponential: x = g^e = zeta^j r^k P^e with the integers
j = e w (v-N) / (2N) and k = e (6v^2 - 6vN + N^2) / (12N).  r^k and P^e are
binary powers of Gaussian integers with W-bit mantissas and a binary
exponent; ``_pow`` forms each square in its loop from (a + b)(a - b) and
2ab, the two integers the general product forms for a + bi times itself,
in two products instead of four; x is rounded once, to the stated
precision.  k depends on v alone, so one memo per point, v -> (the D_c of
v, r^|k|), keeps what ``_class_sums`` makes for the first vector that
needs it.

Error budget, with work = precision + guard bits, relative to x at the mpc
tau ``siegel_power`` is given, rounded to work bits: an error that tau
already carries is not in it.  Write x_q = |q|, y = x_q^{1/2}, rho = |r|
and a = v/N.

- Bounds.  E0 = prod_m (1 - x_q^m) >= exp(-pi^2 x_q / (6 (1 - x_q))) and
  E0 <= |eta| <= 1/E0.  |P| >= lambda = min(4/N, (1 - rho)(1 - y)) E0^2.
  For v = 0, |1 - zeta^w| >= 2 sin(pi/N) >= 4/N.  For v > 0, the factors
  1 - q_z and 1 - q/q_z lose x_q^a and x_q^{1-a}; the smaller exponent is
  >= 1/N and the larger >= 1/2.  The other factors lose x_q^{n+a} and
  x_q^{n+1-a} for n >= 1, both at most x_q^n.  So |S| = |P| |eta| >=
  lambda E0: the sum may cancel down to that.  The moduli of all terms of
  S add up to at most Lambda = 3 + 2 x_q/(1 - x_q).
- Truncation.  Each omitted term of S is below x_q^M, and past the first
  one the terms on each side of n shrink at least x_q-fold (E grows by
  N n + v after n, or by N(m+1) - v after n = -m), so each side's tail is
  below x_q^M / (1 - x_q); the same holds for the pentagonal exponents > M
  of eta.  Once x_q^M <= 2^{-work-6} (1 - x_q) lambda E0, S and eta are off
  by less than 2^{-work-5} of |S| and of |eta|, and P by less than
  2^{-work-3}.  M = ceil((work + t) ln 2 / (2 pi Im tau)) + 2 gives
  x_q^M <= 2^{-work-t} x_q^2, and ``_budget`` takes the least t >= 0
  with 2^{-t} x_q^2 <= 2^{-6} (1 - x_q) lambda E0; t = 0 at the reduced CM
  points of every level below 3000.  ``_budget`` works in floats, on Im
  tau clamped to >= 1e-7, below which M exceeds MAX_TERMS whatever t is.
  Six roundings within 2^-52 (Im tau, pi, their product, ln 2, the product,
  the quotient) keep the quotient within 2^-49 of itself, so raised by
  2^-40 of itself before the ceil it never puts M below the formula; M is
  above it only where the quotient is within 2^-40 of itself below an
  integer.  Above Im tau = 1e7 it takes the values at 1e7: M and W only
  shrink as Im tau grows, so they still hold, and no float overflows.
- Fixed point.  r = e^{pi i x} at x = 2 tau / N and zeta = e^{2 pi i/N}
  come from expjpi at >= W bits and are cut to W bits, so each is off by
  < 3 units of 2^-W.  expjpi reduces Re x exactly in units of pi and
  forms pi Im x at a precision raised by its magnitude, so r needs only
  x, of modulus at most 2^{mag(tau)}, to an absolute error below 2^-W:
  ``_form_tables`` forms it at >= W + max(0, mag(tau)) + 4 bits (rounded
  up to a multiple of 64, like the other contexts it makes), so r keeps
  W-bit accuracy at any Im tau.  Each step of a ladder adds < 1.5 units
  (its cut), shrunk by the modulus of every later step.  So r^j (j <= N)
  is off by at most T_r = 3N + 2/(1 - rho) units, q^n = (r^N)^n by
  T_r/(1 - x_q)^2 + 2/(1 - x_q), and zeta^j by 5N; T, the sum of the
  three, bounds every table entry.  Each class still costs at most two
  products.  A class's sum G of entries q^{E div N}, times r^b once per
  class, is off by |G| T plus its entries' errors plus 2.  A pair of
  twists is exactly z T_j + conj(z) T_{N-j} for the table's z = zeta^j, so
  its one pair product adds T (|T_j| + |T_{N-j}|) and its cut, 2, to the
  errors of T_j and T_{N-j}; zeta^0 = 1 and zeta^{N/2} = -1 add nothing,
  and there are no more twists than classes.  So S, of K <= 2 sqrt(2M) + 3
  terms, is off by 2 Lambda T + K T + 4K <= (K + Lambda)(2T + 4).  eta, of
  fewer terms, is off by K T, 1/eta by (K T + 2) / E0^2, and P = S (1/eta),
  relative to |P| = |S| / |eta|, by U / (lambda E0^3) units,
  U = (2K + Lambda + 1) (2T + 4).  ``_budget`` takes
  W = work + 8 + log2(U / (lambda E0^3)), which keeps that below
  2^{-work-7}, second-order terms included; W - work is 19 to 28 bits at
  the reduced CM points of the benchmark.  With the truncation, P is
  within 2^{-work-2} of the true value.
- Powers.  r comes from expjpi at >= W bits, and each step of a binary power
  cuts its mantissas to W bits, so r^k and P^e amplify the errors above
  |k|-fold and |e|-fold.  With |e| <= 12N and |k| <= N^2 the total before
  the last rounding is below (|e| + |k|) 2^{-work-1}, which the default 64
  guard bits hold under 2^{-precision-1} for every level N < 2^31.
- The invariant.  ``siegel_ramachandra_invariant``, the module's other
  entry, raises den and num of the kernel's unrounded x = num/den at
  (0, 1) and theta to g = gcd(6, N) before the one last rounding:
  y = (den/num)^g = g^{12N}.  As g |e| = 12N and g |k| = N^2 at v = 0, each
  bound here and below holds for y with |e| + |k| read as 12N + N^2, and
  the at most six more W-bit cuts of the g-th powers fit the same slack.

The last rounding adds at most 2^{-precision-1}, so the total relative
error of the result is below 2^-precision.

Rounded CM points.  ``normal_basis.conjugates`` and
``siegel_ramachandra_invariant`` round the reduced CM point tau of a form
of discriminant d to work bits (guard 64), which moves it by |delta| <=
(1 + 2^-14) 2^-work |tau|, with |tau| <= (sqrt|d| + 1)/2.  In log x =
2 pi i (j + k tau)/N + e log P, 2 pi |k|/N <= pi |e|/6, and d log P / d tau
sums -2 pi i c u / (1 - u) over the factors 1 - u of P, |u| = x_q^c: the
two with c = a and c = 1 - a add < 1/Im tau each (as e^s - 1 > s), the
rest, c in [n, n + 1] for n >= 1, < 4 pi x_q (2 - x_q) / (1 - x_q)^3.  As
Im tau > 0.86 and x_q < 0.0045 on the segment, |d log x / d tau| < 3 |e|,
so x moves by at most 3.1 |e| |tau| 2^-work, relative.  With the kernel's
(|e| + |k|) 2^{-work-1} this stays below 2^{-precision-2}, and the total
error relative to x at tau below 2^-precision, if N (N + 50 (sqrt|d| + 1))
< 2^63: for every N < 2^31 and |d| < 2^50.
"""

from __future__ import annotations

import functools
import math
from math import gcd
from typing import NamedTuple

import mpmath
from mpmath.libmp import finf, fnan, fninf, from_man_exp, mpc_pos, to_fixed

from .errors import EvaluationError, InputError
from .exactmath import DEFAULT_GUARD, DEFAULT_PRECISION, context, require_level, to_complex
from .quadforms import Discriminant, theta

# Reduced CM points have Im tau >= sqrt(3)/2, where M is about bits / 8; the
# cap only trips on near-real direct calls.
MAX_TERMS = 10**6


def _budget(tau, level: int, work: int) -> tuple[int, int]:
    """M and W, the truncation index and fixed-point scale at the mpc tau."""
    x = 2 * math.pi * min(max(float(tau.imag), 1e-7), 1e7)  # -ln |q|, clamped as the docstring says
    gap = -math.expm1(-x)
    log_e0 = -math.pi**2 / 6 * math.exp(-x) / gap * math.log2(math.e)
    log_lam = math.log2(min(4 / level, -math.expm1(-x / level) * -math.expm1(-x / 2))) + 2 * log_e0
    t = math.ceil(6 - 2 * x * math.log2(math.e) - math.log2(gap) - log_lam - log_e0)
    tail = work + max(0, t)
    terms = math.ceil(tail * math.log(2) / x * (1 + 2**-40)) + 2
    if terms > MAX_TERMS:
        index = "" if tau.imag < 1e-7 else f" {terms}"
        raise EvaluationError(
            f"truncation index{index} exceeds the cap of {MAX_TERMS} terms (Im tau = "
            f"{tau.context.nstr(tau.imag, 8)} is too small for a tail below 2^-{tail})"
        )
    table = (3 * level - 2 / math.expm1(-x / level)) / gap**2 + 2 / gap + 5 * level
    units = (4 * (math.isqrt(2 * terms) + 3) + 2 + 2 / gap) * (2 * table + 4)
    return terms, work + 8 + math.ceil(math.log2(units) - log_lam - 3 * log_e0)


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
    return _cut(a * c - b * d, a * d + b * c, s + t, bits)


def _cut(re: int, im: int, s: int, bits: int):
    """(re + im i) 2^s with both parts cut to at most `bits` bits."""
    drop = max(abs(re).bit_length(), abs(im).bit_length()) - bits
    if drop > 0:
        return re >> drop, im >> drop, s + drop
    return re, im, s


def _pow(x, n: int, bits: int):
    """x^n for an integer n >= 1, by binary powering; a + bi squares as (a + b)(a - b) and 2ab."""
    acc = None
    while True:
        if n & 1:
            acc = x if acc is None else _mul(acc, x, bits)
        n >>= 1
        if not n:
            return acc
        a, b, s = x
        x = _cut((a + b) * (a - b), 2 * a * b, 2 * s, bits)


class _Tables(NamedTuple):
    """What every vector on one CM point shares; pairs are scaled by 2^bits."""

    bits: int  # W
    qpow: tuple  # q^n for n <= M
    rpow: tuple  # r^j = q^(j/N) for j <= N
    eta: tuple  # 1/prod_{m>=1} (1 - q^m)
    r: tuple  # r as a Gaussian float with W-bit mantissas, the base of r^k
    per_v: dict  # v -> (((c, D_c), ...), r^|k|), filled as vectors need it


@functools.lru_cache(maxsize=8)
def _roots(level: int, bits: int) -> tuple:
    """zeta^j for j < N, zeta = e^(2 pi i/N), scaled by 2^bits."""
    wide = context(-(-bits // 64) * 64)
    return _ladder(_fixed(wide.expjpi(wide.mpf(2) / level), bits), level - 1, bits)


# A few entries suffice, since conjugates evaluates the vectors of one form
# together, and each entry's class sums serve every vector of its form;
# more would only carry tables from one request to the next.
@functools.lru_cache(maxsize=4)
def _form_tables(point: tuple, level: int, work: int) -> _Tables:
    """The tables of the point tau, given as the raw tuple of an mpc at work bits."""
    tau = context(work).make_mpc(point)
    terms, bits = _budget(tau, level, work)
    # at least W bits, rounded up so that few contexts are ever made
    wide = context(-(-bits // 64) * 64)
    # the argument 2 tau / N to mag(tau) + 4 more bits, so that r keeps W bits at any Im tau
    sharp = context(-(-(bits + max(0, wide.mag(tau)) + 4) // 64) * 64)
    r = wide.expjpi(2 * sharp.mpc(tau) / level)
    rpow = _ladder(_fixed(r, bits), level, bits)
    qpow = _ladder(rpow[level], terms, bits)
    # prod (1 - q^m) by Euler's pentagonal series, over the exponents <= M
    re = im = 0
    for k in range(-math.isqrt(terms), math.isqrt(terms) + 1):
        n = k * (3 * k - 1) // 2
        if n <= terms:
            a, b = qpow[n]
            re, im = (re - a, im - b) if k & 1 else (re + a, im + b)
    norm = re * re + im * im
    eta = ((re << 2 * bits) // norm, (-im << 2 * bits) // norm)
    shift = bits - wide.mag(r)  # W-bit mantissas whatever the size of r
    return _Tables(bits=bits, qpow=qpow, rpow=rpow, eta=eta, r=(*_fixed(r, shift), -shift), per_v={})


def _class_sums(tables: _Tables, v: int, k: int, level: int) -> tuple:
    """((c, D_c), ...) and r^|k|, shared by every vector with this v.

    D_c = r^(vc mod N) sum_{n = c mod N} (-1)^n q^(E div N) over the terms of
    S, E = N n(n-1)/2 + v n <= N M, from n = 0 up and n = -1 down, for the
    classes c that some term falls in.
    """
    N, W, qpow, rpow = level, tables.bits, tables.qpow, tables.rpow
    limit, sums = N * (len(qpow) - 1), {}
    for n, ex, step, dn in ((0, 0, v, 1), (-1, N - v, 2 * N - v, -1)):
        while ex <= limit:
            a, b = qpow[ex // N]
            sr, si = sums.get(n % N, (0, 0))
            sums[n % N] = (sr - a, si - b) if n & 1 else (sr + a, si + b)
            n, ex, step = n + dn, ex + step, step + N
    # E = v n mod N, so r^(E mod N) is one factor per class; rpow[0] = 2^W is exact
    classes = tuple((c, _fmul(rpow[v * c % N], s, W)) for c, s in sums.items())
    return classes, _pow(tables.r, abs(k), W)


def power_exponent(level: int) -> int:
    """The one exponent on g at level N: e = -12N/gcd(6, N), even and negative."""
    level = require_level(level)
    return -12 * level // gcd(6, level)


def siegel_power(
    v: int,
    w: int,
    tau,
    level: int,
    precision: int = DEFAULT_PRECISION,
    guard: int = DEFAULT_GUARD,
):
    """g_{(v/N, w/N)}(tau)^e for the level's exponent e = -12N/gcd(6, N).

    (v, w) may be any ints not congruent to (0, 0) mod N; they are
    reduced into [0,1)^2 before evaluating.  The exponent makes the
    result depend only on the class of +-(v/N, w/N) mod Z^2, which is
    what allows labelling conjugates by canonical vectors.
    tau, a finite mpc or complex in the upper half-plane, is rounded to
    precision + guard bits before use.
    """
    level = require_level(level)
    if type(v) is not int or type(w) is not int or (v % level == 0 and w % level == 0):
        raise InputError(f"(v, w) must be integers, not both 0 mod N, got ({v}, {w})")
    if type(guard) is not int or guard < 0:
        raise InputError(f"guard must be an integer >= 0 bits, got {guard}")
    out = context(precision)
    work = out.prec + guard
    point = tau._mpc_ if hasattr(tau, "_mpc_") else context(work).mpc(tau)._mpc_  # a complex has none
    point = re, im = mpc_pos(point, work, "n")
    if re in (finf, fninf, fnan) or im[0] or not im[1]:  # im[1], the mantissa, is 0 at 0, inf, nan
        raise InputError("tau must be a finite point of the upper half-plane")
    return _quotient(*_power_parts(v % level, w % level, point, level, work), out)


def siegel_ramachandra_invariant(
    d: Discriminant, N: int, precision: int = DEFAULT_PRECISION
) -> mpmath.mpc:
    """y = g_{(0,1/N)}(theta)^{12N} = x^{-gcd(6, N)}, from the kernel's unrounded x at
    theta rounded to precision + 64 bits, rounded once; the module's "The invariant"
    and "Rounded CM points" bound the error.  d = -3 and -4 are accepted."""
    precision = context(precision).prec
    N = require_level(N)
    work = precision + DEFAULT_GUARD
    num, den, bits = _power_parts(0, 1, to_complex(theta(d), work)._mpc_, N, work)
    g = gcd(6, N)
    return _quotient(_pow(den, g, bits), _pow(num, g, bits), bits, context(precision))


def _power_parts(v: int, w: int, point: tuple, level: int, work: int) -> tuple:
    """(num, den, W), W-bit Gaussian floats with x = num/den, at residues (v, w) and a raw tau."""
    tables = _form_tables(point, level, work)
    N, W, zeta, e = level, tables.bits, _roots(level, tables.bits), power_exponent(level)
    # x = zeta^j r^k P^e; both quotients are exact, as gcd(6, N) divides 6 and N
    k = e * (6 * v * v - 6 * v * N + N * N) // (12 * N)
    entry = tables.per_v.get(v)
    if entry is None:
        entry = tables.per_v[v] = _class_sums(tables, v, k, N)
    sums, rk = entry

    # S = sum_c zeta^(wc) D_c over the classes c = n mod N, with the twist
    # sums T_j = sum_{wc = j} D_c; zeta^(N-j) is the conjugate of zeta^j, so
    # zeta^j T_j + zeta^(N-j) T_(N-j) = C_j (T_j + T_(N-j)) + i S_j (T_j - T_(N-j))
    twists = {}
    for c, (a, b) in sums:
        j = w * c % N
        ta, tb = twists.get(j, (0, 0))
        twists[j] = (ta + a, tb + b)
    sr, si = twists.pop(0, (0, 0))
    if N % 2 == 0:
        a, b = twists.pop(N // 2, (0, 0))
        sr, si = sr - a, si - b
    for j in {min(j, N - j) for j in twists}:
        (a, b), (c, d) = twists.get(j, (0, 0)), twists.get(N - j, (0, 0))
        cj, sj = zeta[j]
        sr += (cj * (a + c) - sj * (b - d)) >> W
        si += (cj * (b + d) + sj * (a - c)) >> W
    pr, pi = _fmul((sr, si), tables.eta, W)

    # e < 0, so P^e goes to den; r^k goes to either (6v^2 - 6vN + N^2 has no integer root)
    j = e * w * (v - N) // (2 * N) % N
    num, den = (*zeta[j], -W) if j else (1, 0, 0), _pow((pr, pi, -W), -e, W)
    if k > 0:
        num = _mul(num, rk, W)  # exact when num is 1 = (1, 0, 0)
    else:
        den = _mul(den, rk, W)
    return num, den, W


def _quotient(num, den, bits: int, out):
    """num/den for Gaussian floats with `bits`-bit mantissas: the parts of num conj(den),
    shifted so that their integer quotients by |den|^2 keep `bits` bits, rounded once to out's precision."""
    (a, b, s), (c, d, t) = num, den
    norm = c * c + d * d
    re, im = a * c + b * d, b * c - a * d
    shift = max(bits + norm.bit_length() - max(abs(re).bit_length(), abs(im).bit_length()), 0)
    exp = s - t - shift
    return out.make_mpc(tuple(from_man_exp((part << shift) // norm, exp, out.prec, "n") for part in (re, im)))
