"""Tests for conjugate enumeration, the certificate, and snapping."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import siegelcm
from siegelcm import (
    DegenerateValueError,
    FracVector,
    InputError,
    SnapFailureError,
    agreement_bits,
    check_criterion,
    conjugates,
    context,
    least_certifying_power,
    minimal_polynomial,
    reduced_forms,
    rounded,
    siegel_power,
    siegel_ramachandra_invariant,
    theta,
    to_complex,
    validate_discriminant,
    w_group,
)

from test_siegel_eval import FROZEN_X1

D20 = validate_discriminant(-20)

# the level-6 conjugate labels for discriminant -20, as +-classes mod 6
EXPECTED_VECTORS_20_6 = [
    (0, 1), (1, 0), (3, 2), (2, 3),  # at the principal CM point
    (3, 2), (1, 5), (3, 1), (5, 4),  # at the other one
]

# coefficients of prod(X - x_i) for d=-20, N=6: the raw product of the
# conjugates, pinned at 128 and 256 bits by
# test_minimal_polynomial_precision_independent, and recovered without
# library code by integer-relation detection in
# test_acceptance.py::test_reference_polynomial_by_integer_relation
VERIFIED_POLY_20_6 = (1, -1263840, 42016796, 72894400, 150566406, -4525280, 167196, -1280, 1)


@pytest.fixture(scope="module")
def records_20_6():
    return conjugates(D20, 6, precision=256)


def test_conjugates_level_six_vectors(records_20_6):
    got = [r.vector for r in records_20_6]
    expected = [FracVector.make(v, w, 6) for v, w in EXPECTED_VECTORS_20_6]
    assert got == expected


def test_conjugates_points_grouped(records_20_6):
    pts = [(r.point.p, r.point.q, r.point.d) for r in records_20_6]
    assert pts[:4] == [(0, 2, -20)] * 4
    assert pts[4:] == [(-2, 4, -20)] * 4


def test_identity_record_first(records_20_6):
    first = records_20_6[0]
    assert first.index.alpha.is_identity()
    assert first.index.form.as_tuple() == (1, 0, 5)
    assert first.vector.as_tuple() == (0, 1)
    ctx = context(300)
    frozen = ctx.mpf(FROZEN_X1)
    assert abs(ctx.mpc(first.value) - frozen) < frozen * ctx.mpf(2) ** -240


def test_identity_record_matches_direct_evaluation(records_20_6):
    tau = to_complex(theta(D20), 256 + 64)
    direct = siegel_power(0, 1, tau, 6, "-", precision=256, guard=64)
    assert records_20_6[0].value == direct  # same code path, bit-identical


def test_conjugates_rerun_deterministic(records_20_6):
    again = conjugates(D20, 6, precision=256)
    assert again == list(records_20_6)


def test_conjugates_single_index_case():
    recs = conjugates(validate_discriminant(-7), 2, precision=256)
    assert len(recs) == 1
    assert recs[0].vector.as_tuple() == (0, 1)
    assert (recs[0].point.p, recs[0].point.q, recs[0].point.d) == (-1, 2, -7)
    # the lone value is exactly -1
    ctx = context(280)
    assert abs(ctx.mpc(recs[0].value) + 1) < ctx.mpf(2) ** -250


def test_check_criterion_level_six_run(records_20_6):
    report = check_criterion(list(records_20_6))
    assert report.passes
    assert report.group_order == 8
    assert len(report.ratios) == 7
    assert report.max_ratio < 1e-4
    assert report.m == 1
    assert max(report.ratios) <= report.max_ratio


def test_check_criterion_single_record():
    recs = conjugates(validate_discriminant(-7), 2, precision=128)
    report = check_criterion(recs)
    assert report.passes
    assert report.group_order == 1
    assert report.ratios == ()
    assert report.m == 1
    assert report.max_ratio == 2.0**-64  # margin only


def test_check_criterion_degenerate_value(records_20_6):
    zero = rounded(mpmath.mpc(0), 256)
    broken = [dataclasses.replace(records_20_6[0], value=zero)] + list(records_20_6[1:])
    with pytest.raises(DegenerateValueError):
        check_criterion(broken)


def test_check_criterion_rejects_nan_and_infinite_base(records_20_6):
    # a NaN ratio would be skipped by max(), so NaN values and an infinite
    # base (inf / inf = NaN) must be rejected before the ratios are compared
    nan, inf = rounded(mpmath.nan, 256), rounded(mpmath.inf, 256)
    for k, value in ((5, nan), (0, nan), (0, inf)):
        recs = list(records_20_6)
        recs[k] = dataclasses.replace(recs[k], value=value)
        with pytest.raises(DegenerateValueError):
            check_criterion(recs)


def test_records_and_report_pickle():
    recs = conjugates(D20, 6, precision=320)
    report = check_criterion(recs)
    assert pickle.loads(pickle.dumps(recs)) == recs
    assert pickle.loads(pickle.dumps(report)) == report
    # a fresh interpreter has none of the contexts yet; it must rebuild them
    script = (
        "import pickle, sys\n"
        "recs = pickle.load(sys.stdin.buffer)\n"
        "assert all(r.value.context.prec == 320 for r in recs)\n"
        "sys.stdout.buffer.write(pickle.dumps(recs))\n"
    )
    src = os.path.dirname(os.path.dirname(siegelcm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(recs), env=env,
        capture_output=True, check=True,
    )
    back = pickle.loads(done.stdout)
    assert back == recs
    assert back[0].value.context.prec == 320


def test_check_criterion_needs_records():
    with pytest.raises(InputError):
        check_criterion([])


def test_least_certifying_power_exact_boundaries():
    assert least_certifying_power(0.5, 8) == 3  # (1/2)^3 = 1/8 exactly
    assert least_certifying_power(0.5 + 1e-12, 8) == 4  # just above the boundary
    assert least_certifying_power(0.25, 8) == 2
    assert least_certifying_power(1e-5, 8) == 1
    assert least_certifying_power(0.0, 8) == 1
    assert least_certifying_power(0.5, 1) == 1
    assert least_certifying_power(Fraction(1, 2), 8) == 3
    with pytest.raises(InputError):
        least_certifying_power(1.0, 8)
    with pytest.raises(InputError):
        least_certifying_power(0.5, 0)


def test_least_certifying_power_accepts_mpf():
    assert least_certifying_power(mpmath.mpf(0.5), 8) == 3


@pytest.mark.parametrize("ratio", [mpmath.inf, mpmath.nan, float("inf"), float("nan")])
def test_least_certifying_power_rejects_nonfinite(ratio):
    with pytest.raises(InputError):
        least_certifying_power(ratio, 8)


def test_least_certifying_power_near_one():
    # within float epsilon of 1: still finite, decided by logarithms
    m = least_certifying_power(Fraction(2**100 - 1, 2**100), 8)
    assert m > 10**4
    # sanity: m * log(ratio) <= log(1/8) up to the estimate's precision
    assert m >= 2**100 * 2  # log(8) / -log(1 - 2^-100) ~ 2.08 * 2^100
    # within 2^-128 of 1 the rounded ratio's log is 0; m must stay finite and right
    ctx = context(512)
    expected = ctx.log(8) / -ctx.log1p(-ctx.mpf(2) ** -200)
    m = least_certifying_power(1 - Fraction(1, 2**200), 8)
    assert abs(m - expected) <= expected * ctx.mpf(2) ** -120


def test_minimal_polynomial_level_six_run(records_20_6):
    poly = minimal_polynomial(list(records_20_6))
    assert poly.coefficients == VERIFIED_POLY_20_6
    assert poly.degree == 8
    assert poly.max_rounding_residual < 1e-10
    assert poly.max_imag_residual < 1e-10


def test_minimal_polynomial_precision_independent():
    lo = minimal_polynomial(conjugates(D20, 6, precision=128))
    hi = minimal_polynomial(conjugates(D20, 6, precision=256))
    assert lo.coefficients == hi.coefficients == VERIFIED_POLY_20_6


def test_minimal_polynomial_degree_one():
    recs = conjugates(validate_discriminant(-7), 2, precision=256)
    poly = minimal_polynomial(recs)
    assert poly.coefficients == (1, 1)  # X + 1


def test_minimal_polynomial_snap_failure_on_genuine_nonintegrality():
    # level 2 over discriminant -8: coefficients are rational with a
    # 2-power denominator, far outside any rounding tolerance
    recs = conjugates(validate_discriminant(-8), 2, precision=256)
    with pytest.raises(SnapFailureError) as exc:
        minimal_polynomial(recs)
    assert 0.2 <= exc.value.max_rounding_residual <= 0.3


def test_minimal_polynomial_large_coefficients_need_precision():
    # level 5 over discriminant -24 has integer coefficients near 2e71;
    # 256-bit values cannot resolve them to 1e-10, 384-bit values can
    d24 = validate_discriminant(-24)
    with pytest.raises(SnapFailureError) as exc:
        minimal_polynomial(conjugates(d24, 5, precision=256))
    assert exc.value.max_rounding_residual < 1e-2  # rounding-level, not genuine
    poly = minimal_polynomial(conjugates(d24, 5, precision=384))
    assert poly.degree == 16
    assert abs(poly.coefficients[-1]) == 1
    assert max(abs(c) for c in poly.coefficients) > 10**70
    assert poly.max_rounding_residual < 1e-10


def test_minimal_polynomial_snap_failure_degree_one(records_20_6):
    half = rounded(mpmath.mpf("0.5"), 256)
    fake = [dataclasses.replace(records_20_6[0], value=half)]
    with pytest.raises(SnapFailureError):
        minimal_polynomial(fake)
    with pytest.raises(InputError):
        minimal_polynomial([])


def test_polynomial_degree_equals_group_order():
    for d_int, N in [(-20, 6), (-7, 2), (-20, 2), (-15, 3)]:
        d = validate_discriminant(d_int)
        recs = conjugates(d, N, precision=128)
        assert len(recs) == len(w_group(d, N)) * len(reduced_forms(d))


def test_invariant_identity_level_six(records_20_6):
    # with gcd(6, N) = 6 the 12N-th power is the -6th power of the base value
    inv = siegel_ramachandra_invariant(D20, 6, precision=256)
    x1 = records_20_6[0].value
    assert agreement_bits(inv, x1 ** -6) >= 200


def test_invariant_identity_coprime_level():
    # with gcd(6, 5) = 1 the 12N-th power is the -1st power of the base value
    inv = siegel_ramachandra_invariant(D20, 5, precision=256)
    x1 = conjugates(D20, 5, precision=256)[0].value
    assert agreement_bits(inv, x1 ** -1) >= 200


def test_invariant_frozen_value():
    # frozen by the brute-force oracle: this invariant is exactly 1
    inv = siegel_ramachandra_invariant(validate_discriminant(-7), 2, precision=256)
    ctx = context(280)
    assert abs(ctx.mpc(inv) - 1) < ctx.mpf(2) ** -200
