"""Tests for the q-product evaluator, against independent routes."""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest

from siegelcm import (
    EvaluationError,
    InputError,
    QuadIrrational,
    agreement_bits,
    conjugates,
    context,
    power_exponent,
    rounded,
    siegel_power,
    to_complex,
    validate_discriminant,
)
from siegelcm import siegel_eval
from siegelcm.siegel_eval import _truncation_index

from oracles import oracle_siegel_g

TAU_I = rounded(mpmath.mpc(0, 1), 320)
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
    val = siegel_power(0, 1, TAU_I, 2, "-", precision=256)
    assert agreement_bits(val, rounded(mpmath.mpf(1) / 8, 256)) >= 250


def test_matches_bruteforce_oracle():
    # (v, w, N, tau, e): every exponent -12N/gcd(6, N) here is -12
    cases = [
        (0, 1, 2, TAU_I, -12),
        (0, 1, 6, SQRT5_I, -12),
        (1, 5, 6, to_complex(QuadIrrational(-2, 4, -20), 320), -12),
        (1, 0, 3, TAU_I, -12),
    ]
    for v, w, N, tau, e in cases:
        ours = siegel_power(v, w, tau, N, "-", precision=256)
        with mpmath.workprec(512):
            ref = oracle_siegel_g(Fraction(v, N), Fraction(w, N), context(512).mpc(tau)) ** e
        assert agreement_bits(ours, rounded(ref, 256)) >= 250


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
    ours = siegel_power(1, 2, tau_big, 6, "-", precision=256)
    assert agreement_bits(ours, rounded(ref, 256)) >= 245


def test_frozen_regression_constant():
    # g is i * FROZEN_G16_IMAG, so its -12th power is FROZEN_G16_IMAG^-12
    val = siegel_power(0, 1, SQRT5_I, 6, "-", precision=256)
    ctx = context(300)
    frozen = ctx.mpf(FROZEN_G16_IMAG) ** -12
    assert abs(val.imag) < frozen * ctx.mpf(2) ** -240
    assert abs(val.real - frozen) < frozen * ctx.mpf(2) ** -245


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_double_precision_self_consistency(prec):
    lo = siegel_power(1, 3, SQRT5_I, 7, "-", precision=prec)
    hi = siegel_power(1, 3, SQRT5_I, 7, "-", precision=2 * prec)
    assert agreement_bits(lo, hi) >= prec - 4


def test_truncation_soundness(monkeypatch):
    # doubling the term count beyond the chosen index moves the value by
    # less than 2^-precision relative; guard 0 at 320 bits keeps the same
    # working precision and M as precision 256 with 64 guard bits, and
    # shows the value at the working precision
    precision = 256
    ctx = context(320)
    key = (ctx.mpc(SQRT5_I)._mpc_, 6, 320)
    chosen = siegel_power(0, 1, SQRT5_I, 6, "-", precision=320, guard=0)
    m = siegel_eval._form_tables(*key).terms
    monkeypatch.setattr(siegel_eval, "_truncation_index", lambda *args: 2 * _truncation_index(*args))
    siegel_eval._form_tables.cache_clear()
    try:
        doubled = siegel_power(0, 1, SQRT5_I, 6, "-", precision=320, guard=0)
        assert siegel_eval._form_tables(*key).terms == 2 * m
    finally:
        siegel_eval._form_tables.cache_clear()
    assert abs(chosen - doubled) / abs(doubled) < ctx.mpf(2) ** -precision


@pytest.mark.parametrize(
    "d, N, sign, p, pick, terms",
    [
        (-71, 30, "-", 256, max, 200),  # N = 30, v up to N - 1, the least Im tau
        (-71, 30, "+", 256, max, 200),
        (-1031, 7, "-", 256, min, 200),  # principal: Im tau ~ 16, values near 10^+-300
        (-311, 12, "-", 1408, max, 400),
    ],
)
def test_siegel_power_matches_oracle_on_a_whole_form(d, N, sign, p, pick, terms):
    # every vector of one form, against the oracle's power at 2p bits
    records = conjugates(validate_discriminant(d), N, precision=64)
    form = pick(rec.index.form.as_tuple() for rec in records)
    chosen = [rec for rec in records if rec.index.form.as_tuple() == form]
    tau = to_complex(chosen[0].point, p + 64)
    e = power_exponent(N, sign)
    for rec in chosen:
        v, w = rec.vector.as_tuple()
        ours = siegel_power(v, w, tau, N, sign, precision=p)
        with mpmath.workprec(2 * p):
            g = oracle_siegel_g(Fraction(v, N), Fraction(w, N), context(2 * p).mpc(tau), terms, 2 * p)
            ref = rounded(g**e, 2 * p)
        assert agreement_bits(ours, ref) >= p, (form, v, w)


def test_values_do_not_depend_on_the_table_cache():
    # bit-identical on a cold cache, and with forms interleaved so that the
    # cache evicts tables between calls
    records = conjugates(validate_discriminant(-71), 30, precision=128)

    def again(rec):
        v, w = rec.vector.as_tuple()
        return siegel_power(v, w, to_complex(rec.point, 192), 30, "-", precision=128)

    for rec in records[::7]:
        siegel_eval._form_tables.cache_clear()
        assert again(rec) == rec.value
    for rec in sorted(records, key=lambda rec: (rec.vector.as_tuple(), rec.point.q)):
        assert again(rec) == rec.value


def test_power_exponent():
    assert power_exponent(6, "-") == -12
    assert power_exponent(5, "-") == -60
    assert power_exponent(4, "-") == -24
    assert power_exponent(2, "-") == -12
    assert power_exponent(6, "+") == 72
    assert power_exponent(5, "+") == 60
    with pytest.raises(InputError):
        power_exponent(6, "*")


def test_siegel_power_matches_oracle_power():
    ours = siegel_power(0, 1, SQRT5_I, 6, "-", precision=256)
    with mpmath.workprec(512):
        ref = oracle_siegel_g(Fraction(0), Fraction(1, 6), context(512).mpc(SQRT5_I)) ** -12
    assert agreement_bits(ours, rounded(ref, 256)) >= 245
    ctx = context(300)
    assert abs(ctx.mpc(ours) - ctx.mpf(FROZEN_X1)) < ctx.mpf(FROZEN_X1) * ctx.mpf(2) ** -240


def test_siegel_power_sign_invariance():
    # (0, N-1) = -(0, 1): same value through a different evaluation path
    a = siegel_power(0, 1, SQRT5_I, 6, "-", precision=256)
    b = siegel_power(0, 5, SQRT5_I, 6, "-", precision=256)
    assert agreement_bits(a, b) >= 248
    c = siegel_power(2, 3, SQRT5_I, 6, "-", precision=256)
    d = siegel_power(4, 3, SQRT5_I, 6, "-", precision=256)
    assert agreement_bits(c, d) >= 248


def test_siegel_power_mod_translation_invariance():
    a = siegel_power(0, 1, SQRT5_I, 6, "-", precision=256)
    for k in (1, 2, -3):
        b = siegel_power(6 * k, 1 + 6 * k, SQRT5_I, 6, "-", precision=256)
        assert a == b  # reduced before evaluation: bit-identical


def test_siegel_power_plus_sign():
    plus = siegel_power(0, 1, SQRT5_I, 6, "+", precision=256)
    with mpmath.workprec(512):
        ref = oracle_siegel_g(Fraction(0), Fraction(1, 6), context(512).mpc(SQRT5_I)) ** 72
    assert agreement_bits(plus, rounded(ref, 256)) >= 240


def test_siegel_power_rejects_zero_vector():
    with pytest.raises(InputError):
        siegel_power(6, 12, SQRT5_I, 6, "-")
    with pytest.raises(InputError):
        siegel_power(0, 1, SQRT5_I, 1, "-")


def test_params_validation():
    low = rounded(mpmath.mpc(0, -1), 128)
    with pytest.raises(InputError):
        siegel_power(0, 1, low, 2, "-")
    with pytest.raises(InputError):
        siegel_power(0, 1, TAU_I, 2, "-", precision=1)
    with pytest.raises(InputError):
        siegel_power(0, 1, TAU_I, 2, "-", guard=-1)
    for guard in (0.5, float("nan"), float("inf")):
        with pytest.raises(InputError, match="guard must be an integer"):
            siegel_power(0, 1, TAU_I, 2, "-", guard=guard)
    for level in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="level must be an integer"):
            siegel_power(0, 1, TAU_I, level, "-")
    for v in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="must be integers"):
            siegel_power(v, 1, TAU_I, 6, "-")
    with pytest.raises(InputError):
        siegel_power(0, 1, TAU_I, 6.9, "-")  # not truncated to level 6
    with pytest.raises(InputError, match="integer >= 2 bits"):
        siegel_power(0, 1, TAU_I, 6, "-", precision=256.5)  # not truncated to 256
    with pytest.raises(InputError, match="must be integers"):
        siegel_power(0.5, 1, TAU_I, 6, "-")
    # integral entries follow the level's rule and are accepted
    assert siegel_power(1.0, 1, TAU_I, 6, "-") == siegel_power(1, 1, TAU_I, 6, "-")
    with pytest.raises(InputError, match="integer >= 2 bits"):
        conjugates(validate_discriminant(-20), 6, precision=256.5)


def test_precision_unachievable_on_tiny_imaginary_part():
    # Im tau = 1e-5 at 256+64 bits needs M ~ 3.5e6 terms, above MAX_TERMS
    thin = rounded(mpmath.mpc(0, "1e-5"), 256)
    with pytest.raises(EvaluationError, match="exceeds the cap"):
        siegel_power(0, 1, thin, 2, "-")
    # Im tau = 0.01 at 64+16 bits needs M = 885 terms, within the cap
    low = rounded(mpmath.mpc(0, "0.01"), 256)
    val = siegel_power(0, 1, low, 2, "-", precision=64, guard=16)
    assert abs(val) > 0


def test_factor_moduli_stay_near_one():
    # every factor (1 - q^n q_z^{+-1}) for n >= 1 is within |q|^(n - r1) of 1
    ctx = context(128)
    tau = ctx.mpc(SQRT5_I)
    q = ctx.exp(2j * ctx.pi * tau)
    r1 = Fraction(1, 6)
    qz = ctx.exp(2j * ctx.pi * (tau / 6 + ctx.mpf(1) / 6))
    for n in range(1, 20):
        hi = abs(q) ** (n - float(r1))
        assert abs(abs(1 - q**n * qz) - 1) <= hi
        assert abs(abs(1 - q**n / qz) - 1) <= hi
