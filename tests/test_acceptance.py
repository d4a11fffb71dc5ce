"""Acceptance suite: each criterion test prints one PASS/FAIL line.

Criterion 4 compares the snapped level-6 polynomial over discriminant -20,
coefficient by coefficient, against ``REFERENCE_POLY_20_6``.  That list was
transcribed from a worked example that is not part of the repository, and
the transcription dropped the last digit of the X^4 coefficient (15056640
for 150566406).  The entry is corrected on evidence that uses no library
code: ``test_reference_polynomial_by_integer_relation`` evaluates the base
value with the independent q-product oracle and recovers the list by
integer-relation detection.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

import mpmath

from siegelcm import (
    FracVector,
    MatrixModN,
    SnapFailureError,
    act_vector,
    beta_modN,
    check_criterion,
    conjugates,
    minimal_polynomial,
    reduced_forms,
    siegel_power,
    siegel_ramachandra_invariant,
    theta,
    to_complex,
    validate_discriminant,
    w_group,
)
from siegelcm.normal_basis import SNAP_TOLERANCE

from helpers import agreement_bits
from oracles import oracle_is_fundamental, oracle_reduced_forms, oracle_siegel_g

GRID_D = (-7, -8, -11, -15, -19, -20, -24)
GRID_N = (2, 3, 4, 5, 6)

# Reference coefficient list for criterion 4 (degree-descending): the
# minimal polynomial of g_(0,1/6)(sqrt(-5))^-12 over Q, checked without
# library code by test_reference_polynomial_by_integer_relation.
REFERENCE_POLY_20_6 = [1, -1263840, 42016796, 72894400, 150566406, -4525280, 167196, -1280, 1]

# Pairs whose conjugate product is an integer polynomial, established at
# 700 working bits: exactly these snap once the precision resolves the
# coefficient sizes.  At 256 bits the (-24, 5) coefficients (~2e71) still
# exceed integer resolution, and at 128 bits the three N=5 entries do.
INTEGRAL_PAIRS = {
    (-7, 2), (-7, 4), (-7, 6),
    (-8, 3), (-8, 6),
    (-11, 3), (-11, 5), (-11, 6),
    (-15, 2), (-15, 4), (-15, 6),
    (-19, 5), (-19, 6),
    (-20, 3), (-20, 6),
    (-24, 5), (-24, 6),
}
SNAP_AT_256 = INTEGRAL_PAIRS - {(-24, 5)}
SNAP_AT_128 = INTEGRAL_PAIRS - {(-11, 5), (-19, 5), (-24, 5)}


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_class_group_of_minus_20():
    d = validate_discriminant(-20)
    reduced_forms(d)  # warm-up
    start = time.perf_counter()
    forms = [q.as_tuple() for q in reduced_forms(d)]
    elapsed = time.perf_counter() - start
    ok = forms == [(1, 0, 5), (2, 2, 3)] and elapsed < 1e-3
    report(1, ok, f"forms(-20) = {forms}, {elapsed * 1e3:.3f} ms")
    assert forms == [(1, 0, 5), (2, 2, 3)]
    assert elapsed < 1e-3


def test_criterion_2_reciprocity_data_of_minus_20():
    d = validate_discriminant(-20)
    q2 = reduced_forms(d)[1]
    beta_modN(q2, 6), w_group(d, 6)  # warm-up
    start = time.perf_counter()
    beta = beta_modN(q2, 6)
    group = [el.entries() for el in w_group(d, 6)]
    elapsed = time.perf_counter() - start
    expected_w = [(1, 0, 0, 1), (0, 1, 1, 0), (2, 3, 3, 2), (3, 2, 2, 3)]
    ok = (
        beta == MatrixModN(1, 5, 3, 2, 6)
        and sorted(group) == sorted(expected_w)
        and len(group) == 4
        and elapsed < 1e-3
    )
    report(2, ok, f"beta = {beta.entries()}, #W = {len(group)}, {elapsed * 1e3:.3f} ms")
    assert beta.entries() == (1, 5, 3, 2)
    assert group == expected_w
    assert elapsed < 1e-3


def test_criterion_3_certificate_of_minus_20_level_6():
    start = time.perf_counter()
    records = conjugates(validate_discriminant(-20), 6, precision=256)
    crit = check_criterion(records)
    elapsed = time.perf_counter() - start
    ok = (
        crit.passes
        and crit.m == 1
        and crit.group_order == 8
        and len(crit.ratios) == 7
        and crit.max_ratio < 1e-4
        and elapsed < 1.0
    )
    report(3, ok, f"passes={crit.passes} max_ratio={crit.max_ratio:.3e} m={crit.m}, {elapsed:.2f} s")
    assert crit.passes and crit.m == 1 and crit.group_order == 8
    assert all(r < 1e-4 for r in crit.ratios)
    assert crit.max_ratio < 1e-4  # margined maximum, strict
    assert elapsed < 1.0


def test_criterion_4_reference_polynomial_of_minus_20_level_6():
    start = time.perf_counter()
    records = conjugates(validate_discriminant(-20), 6, precision=256)
    poly = minimal_polynomial(records)
    elapsed = time.perf_counter() - start
    got = list(poly.coefficients)
    ok = got == REFERENCE_POLY_20_6 and poly.max_rounding_residual < 1e-10 and elapsed < 1.0
    report(
        4,
        ok,
        f"coefficients {'match' if got == REFERENCE_POLY_20_6 else 'differ: ' + str(got)}"
        f" (reference {REFERENCE_POLY_20_6}), residual {poly.max_rounding_residual:.1e},"
        f" {elapsed:.2f} s",
    )
    assert poly.max_rounding_residual < 1e-10
    assert elapsed < 1.0
    assert got == REFERENCE_POLY_20_6, (
        f"snapped coefficients {got} differ from the reference list {REFERENCE_POLY_20_6}"
    )


def test_reference_polynomial_by_integer_relation():
    # x = g_(0,1/6)(theta)^-12 at theta = sqrt(-20)/2 = i sqrt(5), from the
    # naive q-product oracle alone; findpoly finds the least-degree integer
    # relation among 1, x, ..., x^8, which must be criterion 4's list
    with mpmath.workprec(800):
        tau = mpmath.mpc(0, mpmath.sqrt(5))
        x = oracle_siegel_g(Fraction(0), Fraction(1, 6), tau, terms=300, prec=800) ** -12
        assert abs(x.imag) < mpmath.mpf(2) ** -700
        found = mpmath.findpoly(x.real, 8, maxcoeff=10**12, maxsteps=100000)
    assert found is not None
    assert found == REFERENCE_POLY_20_6


def test_criterion_5_property_grid():
    assert SNAP_TOLERANCE == 1e-10  # the frozen snap sets were established at this tolerance
    start = time.perf_counter()
    failures = []
    for d_int in GRID_D:
        d = validate_discriminant(d_int)
        forms = reduced_forms(d)
        for N in GRID_N:
            pair = (d_int, N)
            records = conjugates(d, N, precision=256)
            crit = check_criterion(records)
            # (a) the certificate passes everywhere on the grid
            if not crit.passes:
                failures.append(f"{pair}: certificate failed")
            # (b) the record count is the index-set size #W/{+-1} * h
            expected_degree = len(w_group(d, N)) * len(forms)
            if len(records) != expected_degree:
                failures.append(f"{pair}: degree {len(records)} != {expected_degree}")
            # (c) snapping outcomes are precision-stable: identical integers
            # whenever both precisions snap, and the 256/128-bit snap sets
            # match the frozen ground truth established at 700 bits
            records_128 = conjugates(d, N, precision=128)
            outcomes = {}
            for bits, recs in ((128, records_128), (256, records)):
                try:
                    outcomes[bits] = minimal_polynomial(recs)
                except SnapFailureError as exc:
                    outcomes[bits] = exc
            snapped_128 = not isinstance(outcomes[128], SnapFailureError)
            snapped_256 = not isinstance(outcomes[256], SnapFailureError)
            if snapped_256 != (pair in SNAP_AT_256):
                failures.append(f"{pair}: 256-bit snap outcome {snapped_256} unexpected")
            if snapped_128 != (pair in SNAP_AT_128):
                failures.append(f"{pair}: 128-bit snap outcome {snapped_128} unexpected")
            if snapped_128 and snapped_256:
                if outcomes[128].coefficients != outcomes[256].coefficients:
                    failures.append(f"{pair}: coefficients differ between 128 and 256 bits")
            if snapped_256:
                if outcomes[256].degree != expected_degree:
                    failures.append(f"{pair}: polynomial degree mismatch")
                if N in (4, 6) and abs(outcomes[256].coefficients[-1]) != 1:
                    failures.append(f"{pair}: constant coefficient not a unit")
            elif pair not in INTEGRAL_PAIRS:
                # genuine non-integrality: far outside rounding noise at 256 bits
                if outcomes[256].max_rounding_residual < 0.1:
                    failures.append(f"{pair}: residual too small for genuine non-integrality")
            # (d) every lifted matrix is invertible mod N
            for q in forms:
                if gcd(beta_modN(q, N).det(), N) != 1:
                    failures.append(f"{pair}: beta of {q.as_tuple()} not a unit")
            # (e) sign and translation invariance of the power at working precision
            tau = to_complex(theta(d), 128 + 64)
            a = siegel_power(1, 2, tau, N, precision=128)
            b = siegel_power(-1, -2, tau, N, precision=128)
            if agreement_bits(a, b) < 120:
                failures.append(f"{pair}: sign invariance only {agreement_bits(a, b):.0f} bits")
            if siegel_power(1 + 2 * N, 2 - N, tau, N, precision=128) != a:
                failures.append(f"{pair}: translation invariance broken")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(5, ok, f"{len(GRID_D) * len(GRID_N)} grid pairs, {elapsed:.1f} s"
                  + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_6_oracle_equivalence():
    mismatches = []
    for d in range(-199, 0):
        if not oracle_is_fundamental(d):
            continue
        ours = [q.as_tuple() for q in reduced_forms(validate_discriminant(d))]
        if ours != oracle_reduced_forms(d):
            mismatches.append(d)
    rng = random.Random(424242)
    law_breaks = 0
    for _ in range(1000):
        N = rng.randrange(2, 13)
        v, w = rng.randrange(N), rng.randrange(N)
        if v == 0 and w == 0:
            continue

        def unit_matrix():
            while True:
                ms = [rng.randrange(N) for _ in range(4)]
                if gcd((ms[0] * ms[3] - ms[1] * ms[2]) % N, N) == 1:
                    return MatrixModN(*ms, N)

        vec, m1, m2 = FracVector(v, w, N), unit_matrix(), unit_matrix()
        if act_vector(act_vector(vec, m1), m2) != act_vector(vec, m1 * m2):
            law_breaks += 1
    ok = not mismatches and law_breaks == 0
    report(6, ok, f"forms oracle: {len(mismatches)} mismatches; action law: {law_breaks} breaks")
    assert not mismatches
    assert law_breaks == 0


def test_criterion_7_invariant_exponent_identities():
    # 12N = (-gcd(6, N)) * (-12N / gcd(6, N)): one pair per gcd value
    cases = [(-20, 5, 1), (-7, 2, 2), (-15, 3, 3), (-20, 6, 6), (-11, 4, 2)]
    worst = float("inf")
    for d_int, N, g in cases:
        assert gcd(6, N) == g
        d = validate_discriminant(d_int)
        inv = siegel_ramachandra_invariant(d, N, precision=256)
        base = conjugates(d, N, precision=256)[0].value
        worst = min(worst, agreement_bits(inv, base ** -g))
    ok = worst >= 200
    report(7, ok, f"g^(12N) vs base^(-gcd): worst agreement {worst:.0f} bits")
    assert worst >= 200
