"""Tests for the Siegel-function evaluator, against independent routes."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from siegelcm import (
    EvaluationError,
    InputError,
    QuadForm,
    QuadIrrational,
    conjugates,
    context,
    power_exponent,
    reduced_forms,
    siegel_power,
    siegel_ramachandra_invariant,
    theta,
    theta_of_form,
    to_complex,
    validate_discriminant,
)
from siegelcm import siegel_eval

from helpers import agreement_bits
from oracles import oracle_siegel_g

TAU_I = context(320).mpc(0, 1)
SQRT5_I = to_complex(QuadIrrational(p=0, q=2, d=-20), 320)

# frozen from the 512-bit, 200-term oracle: the value at ((0, 1/6), sqrt(-5))
# is purely imaginary
FROZEN_G16_IMAG = (
    "0.3101177402226807465073921631283460315395975907011245819180384338459768"
    "49580302113716893884"
)
# and the -12th power of it, the base singular value for level 6
FROZEN_X1 = (
    "1263806.753735447019085159611291894542052370963391568379524594982074554"
    "14609711095677167567"
)


def test_quarter_power_of_two_value():
    # at ((0, 1/2), i) the value of g is exactly i * 2^(1/4), so its -12th
    # power is (i * 2^(1/4))^-12 = 2^-3
    val = siegel_power(0, 1, TAU_I, 2, precision=256)
    assert agreement_bits(val, context(256).mpc(mpmath.mpf(1) / 8)) >= 250


def test_matches_bruteforce_oracle():
    # (v, w, N, tau, e): every exponent -12N/gcd(6, N) here is -12
    cases = [
        (0, 1, 2, TAU_I, -12),
        (0, 1, 6, SQRT5_I, -12),
        (1, 5, 6, to_complex(QuadIrrational(-2, 4, -20), 320), -12),
        (1, 0, 3, TAU_I, -12),
    ]
    for v, w, N, tau, e in cases:
        ours = siegel_power(v, w, tau, N, precision=256)
        with mpmath.workprec(512):
            ref = oracle_siegel_g(Fraction(v, N), Fraction(w, N), context(512).mpc(tau)) ** e
        assert agreement_bits(ours, context(256).mpc(ref)) >= 250


def test_matches_theta_quotient_route():
    # fully independent identity:
    #   g = q^{B2(r1)/2} e^{pi i r2(r1-1)} i e^{pi i z} theta1(pi z, e^{pi i tau})
    #       / (q^{1/8} prod(1 - q^n))
    r1, r2 = Fraction(1, 6), Fraction(2, 6)
    tau_big = to_complex(QuadIrrational(-2, 4, -20), 320)
    with mpmath.workprec(400):
        tau = mpmath.mp.mpc(tau_big)
        z = tau / 6 + mpmath.mpf(1) / 3
        q = mpmath.exp(2j * mpmath.pi * tau)
        b2 = Fraction(1, 36) - Fraction(1, 6) + Fraction(1, 6)
        lead = mpmath.exp(2j * mpmath.pi * tau * b2.numerator / (2 * b2.denominator))
        lead *= mpmath.exp(1j * mpmath.pi * r2 * (mpmath.mpf(r1.numerator) / r1.denominator - 1))
        theta1 = mpmath.jtheta(1, mpmath.pi * z, mpmath.exp(1j * mpmath.pi * tau))
        eighth = mpmath.exp(2j * mpmath.pi * tau / 8)
        ref = (lead * 1j * mpmath.exp(1j * mpmath.pi * z) * theta1 / (eighth * mpmath.qp(q))) ** -12
    ours = siegel_power(1, 2, tau_big, 6, precision=256)
    assert agreement_bits(ours, context(256).mpc(ref)) >= 245


def test_frozen_regression_constant():
    # g is i * FROZEN_G16_IMAG, so its -12th power is FROZEN_G16_IMAG^-12
    val = siegel_power(0, 1, SQRT5_I, 6, precision=256)
    ctx = context(300)
    frozen = ctx.mpf(FROZEN_G16_IMAG) ** -12
    assert abs(val.imag) < frozen * ctx.mpf(2) ** -240
    assert abs(val.real - frozen) < frozen * ctx.mpf(2) ** -245


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_double_precision_self_consistency(prec):
    lo = siegel_power(1, 3, SQRT5_I, 7, precision=prec)
    hi = siegel_power(1, 3, SQRT5_I, 7, precision=2 * prec)
    assert agreement_bits(lo, hi) >= prec - 4


def test_truncation_soundness(monkeypatch):
    # doubling M doubles the q^n table and moves the value by less than the
    # error bound; with guard 0 the docstring bounds each value's error by
    # (|e| + |k| + 1) 2^-(work+1) <= 20 * 2^-321 at N = 6, so each value is
    # within 2^-316 of the oracle's at 640 bits and of the doubled one's,
    # far closer than the last series term kept on either side of n or an
    # error 64 bits above 2^-W would leave it.  The doubled M takes W + 1
    # bits, at least its own scale: the term count K grows by less than
    # sqrt(2), so U, and with it W, by less than one bit
    key = (SQRT5_I._mpc_, 6, 320)  # the raw point _form_tables is keyed on, at work bits
    vectors = [(0, 1), (1, 2)]
    chosen = [siegel_power(v, w, SQRT5_I, 6, precision=320, guard=0) for v, w in vectors]
    with mpmath.workprec(640):
        for (v, w), value in zip(vectors, chosen):
            ref = oracle_siegel_g(Fraction(v, 6), Fraction(w, 6), context(640).mpc(SQRT5_I), 100, 640) ** -12
            assert abs(value - ref) / abs(ref) < mpmath.mpf(2) ** -316
    budget = siegel_eval._budget
    m, bits = budget(SQRT5_I, 6, 320)
    assert len(siegel_eval._form_tables(*key).qpow) == m + 1
    monkeypatch.setattr(siegel_eval, "_budget", lambda *args: (2 * budget(*args)[0], budget(*args)[1] + 1))
    siegel_eval._form_tables.cache_clear()
    try:
        doubled = [siegel_power(v, w, SQRT5_I, 6, precision=320, guard=0) for v, w in vectors]
        tables = siegel_eval._form_tables(*key)
        assert (len(tables.qpow), tables.bits) == (2 * m + 1, bits + 1)
    finally:
        siegel_eval._form_tables.cache_clear()
    for value, again in zip(chosen, doubled):
        assert abs(value - again) / abs(again) < mpmath.mpf(2) ** -315


def test_float_truncation_index_is_the_exact_formula():
    # _budget's float M against M = ceil((work + t) ln 2 / (2 pi Im tau)) + 2
    # in mpmath at work bits, at every reduced CM point of four discriminants,
    # with t, the least t >= 0 with 2^-t x_q^2 <= 2^-6 (1 - x_q) lambda E0,
    # from the docstring's bounds: 0 at level 2999, and at level 100000 on
    # (9, 7, 10) large enough to raise M at 576, 1472 and 4288 bits
    forms = [Q for d in (-20, -71, -311, -1031) for Q in reduced_forms(validate_discriminant(d))]
    points = [*((Q, 2999) for Q in forms), (QuadForm(9, 7, 10), 100000)]
    for work in (192, 320, 576, 1472, 4288):
        ctx = context(work)
        for Q, N in points:
            tau = to_complex(theta_of_form(Q), work)
            x_q = ctx.exp(-2 * ctx.pi * tau.imag)
            e0 = ctx.exp(-(ctx.pi**2) * x_q / (6 * (1 - x_q)))
            lam = min(ctx.mpf(4) / N, (1 - ctx.root(x_q, N)) * (1 - ctx.sqrt(x_q))) * e0**2
            t = max(0, 6 + int(ctx.ceil(ctx.log(x_q**2 / ((1 - x_q) * lam * e0), 2))))
            assert (t > 0) == (N > 3000), (Q, N, work)
            m = int(ctx.ceil((work + t) * ctx.ln2 / (2 * ctx.pi * tau.imag))) + 2
            assert siegel_eval._budget(tau, N, work)[0] == m, (Q, N, work)


def _invariant_route(v, w, tau, N, p):
    # x^(-gcd(6, N)) = g^(12N) as siegel_ramachandra_invariant takes it at
    # (0, 1): the kernel's num and den of x, each to the gcd, rounded once
    num, den, bits = siegel_eval._power_parts(v, w, tau._mpc_, N, p + 64)
    g = math.gcd(6, N)
    return siegel_eval._quotient(siegel_eval._pow(den, g, bits), siegel_eval._pow(num, g, bits), bits, context(p))


@pytest.mark.parametrize(
    "d, N, power, p, pick, terms",
    [
        (-71, 30, "-", 256, max, 200),  # N = 30, v up to N - 1, the least Im tau
        (-71, 30, "+", 256, max, 200),
        (-1031, 7, "-", 256, min, 200),  # principal: Im tau ~ 16, values near 10^+-300
        (-311, 12, "-", 1408, max, 400),
        (-71, 2, "-", 256, max, 200),  # N = 2: no pairs of twists, only T_(N/2)
        (-1031, 7, "+", 256, max, 200),  # odd N: every twist but T_0 in a pair
    ],
)
def test_siegel_power_matches_oracle_on_a_whole_form(d, N, power, p, pick, terms):
    # every vector of one form, against the oracle's power at 2p bits: "-"
    # is x = g^e itself, "+" is g^(12N) = x^(-gcd(6, N)) by the invariant's
    # route, also at vectors whose r^k goes to num, which (0, 1) never reaches
    records = conjugates(validate_discriminant(d), N, precision=64)
    form = pick(rec.form.as_tuple() for rec in records)
    chosen = [rec for rec in records if rec.form.as_tuple() == form]
    tau = to_complex(theta_of_form(chosen[0].form), p + 64)
    e = power_exponent(N) if power == "-" else 12 * N
    for rec in chosen:
        v, w = rec.vector.as_tuple()
        ours = siegel_power(v, w, tau, N, precision=p) if power == "-" else _invariant_route(v, w, tau, N, p)
        with mpmath.workprec(2 * p):
            g = oracle_siegel_g(Fraction(v, N), Fraction(w, N), context(2 * p).mpc(tau), terms, 2 * p)
            ref = context(2 * p).mpc(g**e)
        assert agreement_bits(ours, ref) >= p, (form, v, w)


def test_values_do_not_depend_on_the_table_cache():
    # bit-identical on a cold cache, and with forms interleaved so that the
    # cache evicts tables between calls
    records = conjugates(validate_discriminant(-71), 30, precision=128)

    def again(rec):
        v, w = rec.vector.as_tuple()
        return siegel_power(v, w, to_complex(theta_of_form(rec.form), 192), 30, precision=128)

    for rec in records[::7]:
        siegel_eval._form_tables.cache_clear()
        assert again(rec) == rec.value
    for rec in sorted(records, key=lambda rec: (rec.vector.as_tuple(), theta_of_form(rec.form).q)):
        assert again(rec) == rec.value


def test_a_finer_point_shares_the_tables_of_its_rounding():
    # tables are keyed on the point rounded to work bits: a tau at 1024 bits
    # and its rounding to 320 reach one entry and give the same bits
    d, N, p = validate_discriminant(-71), 30, 256
    point = theta_of_form(reduced_forms(d)[3])
    fine = to_complex(point, 1024)
    rounded = context(p + 64).make_mpc(mpmath.libmp.mpc_pos(fine._mpc_, p + 64, "n"))
    assert rounded != fine
    siegel_eval._form_tables.cache_clear()
    values = [siegel_power(1, 2, tau, N, precision=p)._mpc_ for tau in (fine, rounded)]
    info = siegel_eval._form_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert values[0] == values[1]


def _pow_by_mul(x, n, bits):
    # binary powering with every square formed by _mul(x, x, bits)
    while not n & 1:
        x, n = siegel_eval._mul(x, x, bits), n >> 1
    acc = x
    while n := n >> 1:
        x = siegel_eval._mul(x, x, bits)
        if n & 1:
            acc = siegel_eval._mul(acc, x, bits)
    return acc


def test_squares_are_the_integers_of_mul():
    # _pow squares through (a + b)(a - b) and 2ab, the parts of _mul(x, x):
    # bit for bit, with negative parts, mantissas short enough that nothing
    # is cut (drop <= 0), and the exponents e = -84 of level 7 and 12N of level 2
    rng = random.Random(22)
    for _ in range(300):
        size, bits = rng.randint(1, 400), rng.choice((8, 64, 347, 1000))
        a, b = (rng.choice((-1, 1)) * rng.getrandbits(size) for _ in range(2))
        x = (a, b, rng.randint(-900, 900))
        assert siegel_eval._pow(x, 2, bits) == siegel_eval._mul(x, x, bits), (x, bits)
        for n in (1, 2, 3, 24, 84):
            assert siegel_eval._pow(x, n, bits) == _pow_by_mul(x, n, bits), (x, n, bits)


def _gaussian_float(rng, size, real=False):
    # (a + bi) 2^s with a != 0, signed parts of up to `size` bits, b = 0 when real
    a = rng.choice((-1, 1)) * (rng.getrandbits(size) | 1)
    b = 0 if real else rng.choice((-1, 1)) * rng.getrandbits(size)
    return a, b, rng.randint(-2000, 2000)


@pytest.mark.parametrize("p", [64, 256, 1408])
def test_quotient_parts_are_within_the_rounding_of_the_exact_quotient(p):
    # each part of num/den, rounded once to p bits, lies within
    # 2^(1-p) max(|Re q|, |Im q|) of the exact quotient q: with negative parts,
    # real operands and mantissas shorter and longer than `bits` >= p + 8
    rng = random.Random(p)
    out = context(p)
    for _ in range(200):
        bits = p + rng.choice((8, 64, 200))
        num, den = (_gaussian_float(rng, rng.randint(1, 2 * bits), real=rng.random() < 0.2) for _ in range(2))
        (a, b, s), (c, d, t) = num, den
        scale = Fraction(2) ** (s - t) / (c * c + d * d)
        exact = ((a * c + b * d) * scale, (b * c - a * d) * scale)
        q = siegel_eval._quotient(num, den, bits, out)
        assert q.context.prec == p
        ours = [Fraction(*mpmath.libmp.to_rational(part)) for part in q._mpc_]
        bound = max(map(abs, exact)) / Fraction(2) ** (p - 1)
        assert all(abs(x - y) <= bound for x, y in zip(ours, exact)), (num, den, bits)


def test_cached_powers_of_r_are_bit_identical():
    # the tables keep r^|k| per v; a warm cache must give the cold bits
    d, N, p = validate_discriminant(-1031), 7, 256
    form = reduced_forms(d)[1]
    tau = to_complex(theta_of_form(form), p + 64)
    calls = [(v, w) for v in range(N) for w in range(N) if v or w]

    def cold(v, w):
        siegel_eval._form_tables.cache_clear()
        return siegel_power(v, w, tau, N, precision=p)._mpc_

    fresh = [cold(*call) for call in calls]
    siegel_eval._form_tables.cache_clear()
    warm = [siegel_power(v, w, tau, N, precision=p)._mpc_ for v, w in calls]
    assert warm == fresh
    # one entry per v, and k depends on v through v (N - v) alone
    tables = siegel_eval._form_tables(tau._mpc_, N, p + 64)
    assert set(tables.per_v) == set(range(N))
    assert all(tables.per_v[v][1] == tables.per_v[N - v][1] for v in range(1, N))


def test_roots_are_the_expjpi_ladder_and_shared_per_level_and_scale():
    for N, bits in ((2, 200), (7, 347), (12, 1500), (30, 4350)):
        wide = context(-(-bits // 64) * 64)
        zeta = wide.expjpi(wide.mpf(2) / N)
        a, b = (int(wide.floor(wide.ldexp(part, bits))) for part in (zeta.real, zeta.imag))
        ladder = [(1 << bits, 0)]
        for _ in range(N - 1):
            c, d = ladder[-1]
            ladder.append(((a * c - b * d) >> bits, (a * d + b * c) >> bits))
        assert siegel_eval._roots(N, bits) == tuple(ladder)
    # conjugates builds them once per (N, W), however many forms share them
    d, N, p = validate_discriminant(-311), 12, 1408
    siegel_eval._roots.cache_clear()
    siegel_eval._form_tables.cache_clear()
    records = conjugates(d, N, precision=p)
    work = p + 64
    scales = {siegel_eval._budget(to_complex(theta_of_form(Q), work), N, work)[1] for Q in {r.form for r in records}}
    assert siegel_eval._roots.cache_info().misses <= len(scales)


def test_class_sums_hold_one_entry_per_v():
    # after every vector of one form, one entry per v, each with at most
    # 2 isqrt(2M) + 3 classes: no more than the series has terms
    d, N, p = validate_discriminant(-71), 30, 256
    records = conjugates(d, N, precision=64)
    form = max(rec.form.as_tuple() for rec in records)
    chosen = [rec for rec in records if rec.form.as_tuple() == form]
    tau = to_complex(theta_of_form(chosen[0].form), p + 64)
    siegel_eval._form_tables.cache_clear()
    for rec in chosen:
        siegel_power(*rec.vector.as_tuple(), tau, N, precision=p)
    tables = siegel_eval._form_tables(tau._mpc_, N, p + 64)
    assert set(tables.per_v) == {rec.vector.v for rec in chosen}
    for key, (sums, _) in tables.per_v.items():
        assert 0 < len(sums) <= 2 * math.isqrt(2 * (len(tables.qpow) - 1)) + 3, key
        assert len({c for c, _ in sums}) == len(sums)


@pytest.mark.parametrize("imag", ["16", "1e20", "1e60", "1e300", "1e400"])
def test_large_imaginary_part_keeps_the_precision(imag):
    # the exponent of r carries log2 Im tau more bits, and the budget clamps
    # Im tau from above, so neither the accuracy nor a float overflows
    tau = context(256).mpc(mpmath.mpc("0.25", imag))
    ours = siegel_power(0, 1, tau, 6, precision=64)
    bits = 128 + int(mpmath.ceil(mpmath.log(mpmath.mpf(imag), 2))) + 64
    with mpmath.workprec(bits):
        ref = oracle_siegel_g(Fraction(0), Fraction(1, 6), context(bits).mpc(tau), 50, bits) ** -12
        assert agreement_bits(ours, context(bits).mpc(ref)) >= 64


def test_power_exponent():
    assert power_exponent(6) == -12
    assert power_exponent(5) == -60
    assert power_exponent(4) == -24
    assert power_exponent(2) == -12
    # the level follows the one level rule: an int >= 2
    for level in ("6", 1, 0, -6, True, 6.0):
        with pytest.raises(InputError, match=f"got {level}$"):
            power_exponent(level)


def test_siegel_power_matches_oracle_power():
    ours = siegel_power(0, 1, SQRT5_I, 6, precision=256)
    with mpmath.workprec(512):
        ref = oracle_siegel_g(Fraction(0), Fraction(1, 6), context(512).mpc(SQRT5_I)) ** -12
    assert agreement_bits(ours, context(256).mpc(ref)) >= 245
    ctx = context(300)
    assert abs(ctx.mpc(ours) - ctx.mpf(FROZEN_X1)) < ctx.mpf(FROZEN_X1) * ctx.mpf(2) ** -240


def test_siegel_power_sign_invariance():
    # (0, N-1) = -(0, 1): same value through a different evaluation path
    a = siegel_power(0, 1, SQRT5_I, 6, precision=256)
    b = siegel_power(0, 5, SQRT5_I, 6, precision=256)
    assert agreement_bits(a, b) >= 248
    c = siegel_power(2, 3, SQRT5_I, 6, precision=256)
    d = siegel_power(4, 3, SQRT5_I, 6, precision=256)
    assert agreement_bits(c, d) >= 248


def test_siegel_power_mod_translation_invariance():
    a = siegel_power(0, 1, SQRT5_I, 6, precision=256)
    for k in (1, 2, -3):
        b = siegel_power(6 * k, 1 + 6 * k, SQRT5_I, 6, precision=256)
        assert a == b  # reduced before evaluation: bit-identical


def test_siegel_power_plus_sign():
    # the 12N-th power of g is the -gcd(6, N)-th power of x = g^e
    plus = siegel_power(0, 1, SQRT5_I, 6, precision=256) ** -6
    with mpmath.workprec(512):
        ref = oracle_siegel_g(Fraction(0), Fraction(1, 6), context(512).mpc(SQRT5_I)) ** 72
    assert agreement_bits(plus, context(256).mpc(ref)) >= 240


def test_siegel_power_rejects_zero_vector():
    with pytest.raises(InputError):
        siegel_power(6, 12, SQRT5_I, 6)
    with pytest.raises(InputError):
        siegel_power(0, 1, SQRT5_I, 1)


def test_params_validation():
    low = context(128).mpc(0, -1)
    with pytest.raises(InputError):
        siegel_power(0, 1, low, 2)
    with pytest.raises(InputError):
        siegel_power(0, 1, TAU_I, 2, precision=1)
    with pytest.raises(InputError):
        siegel_power(0, 1, TAU_I, 2, guard=-1)
    for guard in (0.5, float("nan"), float("inf")):
        with pytest.raises(InputError, match="guard must be an integer"):
            siegel_power(0, 1, TAU_I, 2, guard=guard)
    for level in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="level must be an integer"):
            siegel_power(0, 1, TAU_I, level)
    for v in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="must be integers"):
            siegel_power(v, 1, TAU_I, 6)
    with pytest.raises(InputError):
        siegel_power(0, 1, TAU_I, 6.9)  # not truncated to level 6
    with pytest.raises(InputError, match="integer >= 2 bits"):
        siegel_power(0, 1, TAU_I, 6, precision=256.5)  # not truncated to 256
    with pytest.raises(InputError, match="must be integers"):
        siegel_power(0.5, 1, TAU_I, 6)
    # v and w follow the level's rule: an integral float or a bool is not an int
    for v in (1.0, True):
        with pytest.raises(InputError, match=rf"must be integers, not both 0 mod N, got \({v}, 1\)$"):
            siegel_power(v, 1, TAU_I, 6)
    assert siegel_power(1, 1, 1j, 6) == siegel_power(1, 1, TAU_I, 6)  # a Python complex tau
    with pytest.raises(InputError, match="integer >= 2 bits"):
        conjugates(validate_discriminant(-20), 6, precision=256.5)


_C64 = context(64)


@pytest.mark.parametrize(
    "tau",
    [
        _C64.mpc(0, mpmath.inf), _C64.mpc(mpmath.inf, 1), _C64.mpc(-mpmath.inf, 1),
        _C64.mpc(mpmath.nan, 1), complex(math.inf, 1), complex(0, math.inf),
        _C64.mpc(0, mpmath.nan), _C64.mpc(0, -1), _C64.mpc(0, 0),
    ],
    ids=["inf i", "inf + i", "-inf + i", "nan + i", "complex(inf, 1)", "complex(0, inf)", "nan i", "-i", "0"],
)
def test_tau_must_be_a_finite_point_of_the_upper_half_plane(tau):
    with pytest.raises(InputError, match="tau must be a finite point of the upper half-plane"):
        siegel_power(0, 1, tau, 6, precision=64)


@pytest.mark.parametrize("precision", ["256", None, 12.5, -63, 1.5, 128.0])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda d, p: conjugates(d, 6, precision=p),
        lambda d, p: siegel_ramachandra_invariant(d, 6, precision=p),
        lambda d, p: to_complex(theta(d), p),
    ],
    ids=["conjugates", "siegel_ramachandra_invariant", "to_complex"],
)
def test_precision_is_checked_before_any_arithmetic_on_it(evaluate, precision):
    # checked before any guard bits are added, so the message names the value passed
    with pytest.raises(InputError, match=f"got {precision}$"):
        evaluate(validate_discriminant(-20), precision)


def test_precision_unachievable_on_tiny_imaginary_part():
    # Im tau = 1e-5 at 256+64 bits needs M > 3.5e6 terms, above MAX_TERMS (t
    # raises it further), and Im tau = 1e-400, which a float cannot hold,
    # needs far more: the budget, clamped at 1e-7, names no M for it
    cases = [
        ("1e-5", r"^truncation index 1254048627 exceeds the cap .*Im tau = 1\.0e-5 "),
        ("1e-400", r"^truncation index exceeds the cap .*Im tau = 1\.0e-400 "),
    ]
    for imag, message in cases:
        thin = context(256).mpc(mpmath.mpc(0, imag))
        with pytest.raises(EvaluationError, match=message):
            siegel_power(0, 1, thin, 2)
    # Im tau = 0.01 at 64+16 bits needs M = 2319 terms, within the cap
    low = context(256).mpc(mpmath.mpc(0, "0.01"))
    val = siegel_power(0, 1, low, 2, precision=64, guard=16)
    assert abs(val) > 0


def test_series_tail_is_below_the_truncation_bound():
    # mpmath alone, at the CM points of the reduced forms (1, 0, 5) and
    # (4, 3, 5): with M = ceil(work ln 2 / (2 pi Im tau)) + 2, the first term
    # (-1)^n zeta^(wn) r^E of the triple-product series with
    # E = N n(n-1)/2 + v n > N M, on each side of n, is below 2^-work |q|^2,
    # and the whole tail on that side below that divided by 1 - |q|
    work = 320
    for (a, b, c), N in (((1, 0, 5), 6), ((4, 3, 5), 30)):
        with mpmath.workprec(work):
            tau = mpmath.mpc(-b, mpmath.sqrt(4 * a * c - b * b)) / (2 * a)
            q = abs(mpmath.exp(2j * mpmath.pi * tau))
            M = int(mpmath.ceil(work * mpmath.ln(2) / (2 * mpmath.pi * tau.imag))) + 2
            bound = mpmath.mpf(2) ** -work * q**2
            for v in range(N):
                for step in (1, -1):
                    exponents = (N * n * (n - 1) // 2 + v * n for n in itertools.count(0, step))
                    first = next(E for E in exponents if E > N * M)
                    omitted = [q ** (mpmath.mpf(E) / N) for E in [first, *itertools.islice(exponents, 20)]]
                    assert omitted[0] < bound
                    assert mpmath.fsum(omitted) < bound / (1 - q)


@pytest.mark.parametrize("d, N, p", [(-71, 30, 256), (-311, 12, 1408)])
def test_eta_denominator_matches_mpmath(d, N, p):
    # the per-form 1/prod(1 - q^m) on the reduced CM point with the least
    # Im tau, against 1/mpmath.qp(q) at 2W bits: the docstring's budget puts
    # it within 2^-(work+5) from truncation and 2^-(work+7) from fixed point
    records = conjugates(validate_discriminant(d), N, precision=64)
    point = min({theta_of_form(rec.form) for rec in records}, key=lambda pt: float(to_complex(pt, 64).imag))
    work = p + 64
    key = to_complex(point, work)
    tables = siegel_eval._form_tables(key._mpc_, N, work)
    with mpmath.workprec(2 * tables.bits):
        tau = mpmath.mpc(key)
        ref = 1 / mpmath.qp(mpmath.exp(2j * mpmath.pi * tau))
        ours = mpmath.mpc(*tables.eta) / mpmath.mpf(2) ** tables.bits
        assert abs(ours - ref) < abs(ref) * mpmath.mpf(2) ** -(work + 4)
