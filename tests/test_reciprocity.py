"""Tests for the matrix layer: local tables, CRT lift, W group, actions."""

from __future__ import annotations

import random
from math import gcd

import pytest

from siegelcm import (
    ExcludedFieldError,
    FracVector,
    InputError,
    MatrixModN,
    QuadForm,
    act_vector,
    beta_local,
    beta_modN,
    conjugate_indices,
    principal_form,
    reduced_forms,
    validate_discriminant,
    w_group,
)

from oracles import CLASS_NUMBERS

D20 = validate_discriminant(-20)


def test_beta_local_even_discriminant_cases():
    q = QuadForm(2, 2, 3)
    assert beta_local(q, 2) == ((-1, -3), (1, 0))  # p | a, p does not divide c
    assert beta_local(q, 3) == ((2, 1), (0, 1))  # p does not divide a
    # the case with p dividing both outer coefficients
    q = QuadForm(6, 2, 15)
    assert q.discriminant == -356
    assert beta_local(q, 3) == ((-7, -16), (1, -1))


def test_beta_local_odd_discriminant_cases():
    assert beta_local(QuadForm(2, 1, 3), 2) == ((-1, -3), (1, 0))
    assert beta_local(QuadForm(2, 1, 3), 5) == ((2, 0), (0, 1))
    q = QuadForm(6, 1, 15)
    assert q.discriminant == -359
    assert beta_local(q, 3) == ((-7, -15), (1, -1))


def test_beta_local_principal_form_is_identity():
    for p in (2, 3, 5, 7):
        assert beta_local(QuadForm(1, 0, 5), p) == ((1, 0), (0, 1))
        assert beta_local(QuadForm(1, 1, 2), p) == ((1, 0), (0, 1))


def test_beta_local_case_determinants():
    # determinant is a, c, or a+b+c depending on the case, always prime to p
    cases = [
        (QuadForm(2, 2, 3), 3, 2),
        (QuadForm(2, 2, 3), 2, 3),
        (QuadForm(6, 2, 15), 3, 6 + 2 + 15),
    ]
    for q, p, expected in cases:
        (m11, m12), (m21, m22) = beta_local(q, p)
        assert m11 * m22 - m12 * m21 == expected
        assert expected % p != 0


def test_beta_modN_worked_example_values():
    assert beta_modN(QuadForm(1, 0, 5), 6).entries() == (1, 0, 0, 1)
    assert beta_modN(QuadForm(2, 2, 3), 6).entries() == (1, 5, 3, 2)
    assert beta_modN(QuadForm(2, 2, 3), 2).entries() == (1, 1, 1, 0)


def test_beta_modN_crt_consistency():
    for d_int, N in [(-20, 6), (-20, 12), (-23, 10), (-84, 18), (-356, 6)]:
        d = validate_discriminant(d_int)
        for q in reduced_forms(d):
            lifted = beta_modN(q, N)
            n = N
            pps = []
            p = 2
            while p * p <= n:
                if n % p == 0:
                    pe = 1
                    while n % p == 0:
                        n //= p
                        pe *= p
                    pps.append((p, pe))
                p += 1
            if n > 1:
                pps.append((n, n))
            # one global sign works across all prime powers simultaneously
            for sign in (1, -1):
                ok = True
                for p, pe in pps:
                    (a, b), (c, dd) = beta_local(q, p)
                    local = tuple(x % pe for x in (a, b, c, dd))
                    got = tuple((sign * e) % pe for e in lifted.entries())
                    if got != local:
                        ok = False
                        break
                if ok:
                    break
            assert ok, f"no global sign matches for {q.as_tuple()} mod {N}"


def test_beta_modN_unit_determinant_everywhere():
    for d_int in CLASS_NUMBERS:
        d = validate_discriminant(d_int)
        forms = reduced_forms(d)
        for N in range(2, 31):
            for q in forms:
                assert gcd(beta_modN(q, N).det(), N) == 1


def test_w_group_level_six_example():
    group = w_group(D20, 6)
    assert [el.entries() for el in group] == [
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (2, 3, 3, 2),
        (3, 2, 2, 3),
    ]
    assert [(el.m22, el.m21) for el in group] == [(1, 0), (0, 1), (2, 3), (3, 2)]


def test_w_group_small_levels():
    assert [el.entries() for el in w_group(D20, 2)] == [(1, 0, 0, 1), (0, 1, 1, 0)]
    group = w_group(validate_discriminant(-7), 2)
    assert len(group) == 1
    assert group[0].is_identity()


def test_w_group_rejects_excluded_fields():
    with pytest.raises(ExcludedFieldError):
        w_group(validate_discriminant(-3), 5)
    with pytest.raises(ExcludedFieldError):
        w_group(validate_discriminant(-4), 5)


def test_w_group_quotient_sizes():
    # raw (t, s) pairs with unit determinant, counted independently
    for d_int, N in [(-20, 6), (-7, 5), (-23, 8), (-20, 2), (-7, 2), (-11, 4)]:
        d = validate_discriminant(d_int)
        _, b, c = principal_form(d).as_tuple()
        raw = sum(
            1
            for t in range(N)
            for s in range(N)
            if gcd(t * t - b * s * t + c * s * s, N) == 1
        )
        classes = len(w_group(d, N))
        if N == 2:
            assert classes == raw  # -1 = 1, quotient trivial
        else:
            assert 2 * classes == raw


def test_w_elements_have_w_shape_and_unit_det():
    for d_int, N in [(-20, 6), (-23, 9), (-8, 12)]:
        d = validate_discriminant(d_int)
        _, b, c = principal_form(d).as_tuple()
        for m in w_group(d, N):
            t, s = m.m22, m.m21
            assert m.m11 == (t - b * s) % N
            assert m.m12 == (-c * s) % N
            assert gcd(m.det(), N) == 1
            assert m.canonical() == m


def test_act_vector_examples():
    swap = MatrixModN.make(0, 1, 1, 0, 6)
    v = FracVector.make(0, 1, 6)
    assert act_vector(v, swap).as_tuple() == (1, 0)
    assert act_vector(v, MatrixModN.make(1, 0, 0, 1, 6)).as_tuple() == (0, 1)
    m = MatrixModN.make(2, 3, 3, 2, 6)
    assert act_vector(v, m).as_tuple() == (3, 2)


def test_act_vector_canonicalizes_sign():
    # (0,1) * (3,1;5,4) = (5,4), whose canonical class representative is (1,2)
    m = MatrixModN.make(3, 1, 5, 4, 6)
    assert act_vector(FracVector.make(0, 1, 6), m).as_tuple() == (1, 2)
    assert FracVector.make(5, 4, 6).as_tuple() == (1, 2)


def _random_unit_matrix(rng, N):
    while True:
        a, b, c, d = (rng.randrange(N) for _ in range(4))
        if gcd((a * d - b * c) % N, N) == 1:
            return MatrixModN.make(a, b, c, d, N)


def test_act_vector_is_right_action():
    rng = random.Random(20250809)
    checked = 0
    while checked < 1000:
        N = rng.randrange(2, 13)
        v, w = rng.randrange(N), rng.randrange(N)
        if v == 0 and w == 0:
            continue
        vec = FracVector.make(v, w, N)
        m1 = _random_unit_matrix(rng, N)
        m2 = _random_unit_matrix(rng, N)
        assert act_vector(act_vector(vec, m1), m2) == act_vector(vec, m1 * m2)
        checked += 1


def test_act_vector_never_hits_zero():
    rng = random.Random(99)
    for _ in range(500):
        N = rng.randrange(2, 13)
        v, w = rng.randrange(N), rng.randrange(N)
        if v == 0 and w == 0:
            continue
        out = act_vector(FracVector.make(v, w, N), _random_unit_matrix(rng, N))
        assert out.as_tuple() != (0, 0)


def test_frac_vector_validation():
    with pytest.raises(ValueError):
        FracVector.make(0, 0, 6)
    with pytest.raises(ValueError):
        FracVector(5, 4, 6)  # not canonical; make() would give (1, 2)
    assert FracVector.make(6, 7, 6).as_tuple() == (0, 1)  # reduced mod N


def test_matrix_modn_validation():
    with pytest.raises(ValueError):
        MatrixModN.make(2, 0, 0, 2, 6)  # det 4, gcd(4,6) = 2
    with pytest.raises(ValueError):
        MatrixModN(7, 0, 0, 1, 6)  # entries out of range
    with pytest.raises(InputError):
        MatrixModN.make(1, 0, 0, 1, 6.5)  # not truncated to level 6
    m = MatrixModN.make(5, 1, 3, 4, 6)
    assert m.canonical().entries() == (1, 5, 3, 2)


def test_conjugate_indices_counts_and_first():
    idx = conjugate_indices(D20, 6)
    assert len(idx) == 8
    assert idx[0].alpha.is_identity()
    assert idx[0].form.as_tuple() == (1, 0, 5)
    assert len(conjugate_indices(validate_discriminant(-7), 2)) == 1
    assert len(conjugate_indices(D20, 2)) == 4
    with pytest.raises(ExcludedFieldError):
        conjugate_indices(validate_discriminant(-4), 6)


def test_conjugate_indices_grouped_by_form():
    idx = conjugate_indices(D20, 6)
    forms = [i.form.as_tuple() for i in idx]
    assert forms == [(1, 0, 5)] * 4 + [(2, 2, 3)] * 4
