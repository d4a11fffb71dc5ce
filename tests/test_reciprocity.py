"""Tests for the matrix layer: local tables, CRT lift, W group, actions."""

from __future__ import annotations

import random
from math import gcd

import pytest

from siegelcm import (
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
    with pytest.raises(InputError, match="extra units"):
        w_group(validate_discriminant(-3), 5)
    with pytest.raises(InputError, match="extra units"):
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


def _kronecker(d: int, p: int) -> int:
    """chi_d(p) for a prime p: Euler's criterion, and d mod 8 at p = 2."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = pow(d, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_w_group_matches_canonical_matrices_and_the_closed_form():
    # against a reference set of plain entry tuples, for every unit (t, s)
    # the smaller of its matrix's residues and their negation, and against
    # #W/{+-1} = phi_K(N)/2 for N > 2 and phi_K(2) for N = 2,
    # phi_K(N) = N^2 prod_{p | N} (1 - 1/p)(1 - chi_d(p)/p); len(w_group) is
    # the #W/{+-1} of check_criterion, which needs exactly the (W class,
    # form) labels of conjugate_indices
    for d_int in (-7, -8, -15, -20, -23, -24, -31, -39, -40, -55, -56, -71):
        d = validate_discriminant(d_int)
        _, b, c = principal_form(d).as_tuple()
        for N in range(2, 19):
            group = w_group(d, N)
            reference = set()
            for t in range(N):
                for s in range(N):
                    if gcd(t * t - b * s * t + c * s * s, N) == 1:
                        m = ((t - b * s) % N, -c * s % N, s, t)
                        reference.add(min(m, tuple(-e % N for e in m)))
            entries = [m.entries() for m in group]
            assert set(entries) == reference and len(entries) == len(reference), (d_int, N)
            assert group[0].is_identity()
            assert [(m.m22, m.m21) for m in group[1:]] == sorted((m.m22, m.m21) for m in group[1:])
            phi = N * N
            for p in {p for p in range(2, N + 1) if N % p == 0 and all(p % q for q in range(2, p))}:
                phi = phi * (p - 1) * (p - _kronecker(d_int, p)) // (p * p)
            assert len(group) == (phi if N == 2 else phi // 2), (d_int, N)


def test_w_elements_have_w_shape_and_unit_det():
    for d_int, N in [(-20, 6), (-23, 9), (-8, 12)]:
        d = validate_discriminant(d_int)
        _, b, c = principal_form(d).as_tuple()
        for m in w_group(d, N):
            t, s = m.m22, m.m21
            assert m.m11 == (t - b * s) % N
            assert m.m12 == (-c * s) % N
            assert gcd(m.det(), N) == 1
            # stored as the class's matrix: -M names the same class, and
            # M's residues are the smaller of the two entry tuples
            neg = tuple(-e % N for e in m.entries())
            assert MatrixModN(*neg, N) == m and m.entries() == min(m.entries(), neg)


def test_act_vector_examples():
    swap = MatrixModN(0, 1, 1, 0, 6)
    v = FracVector(0, 1, 6)
    assert act_vector(v, swap).as_tuple() == (1, 0)
    assert act_vector(v, MatrixModN(1, 0, 0, 1, 6)).as_tuple() == (0, 1)
    m = MatrixModN(2, 3, 3, 2, 6)
    assert act_vector(v, m).as_tuple() == (3, 2)


def test_act_vector_canonicalizes_sign():
    # (0,1) * (3,1;5,4) = (5,4), whose canonical class representative is (1,2)
    m = MatrixModN(3, 1, 5, 4, 6)
    assert act_vector(FracVector(0, 1, 6), m).as_tuple() == (1, 2)
    assert FracVector(5, 4, 6).as_tuple() == (1, 2)


def _random_unit_matrix(rng, N):
    while True:
        a, b, c, d = (rng.randrange(N) for _ in range(4))
        if gcd((a * d - b * c) % N, N) == 1:
            return MatrixModN(a, b, c, d, N)


def test_act_vector_is_right_action():
    rng = random.Random(20250809)
    checked = 0
    while checked < 1000:
        N = rng.randrange(2, 13)
        v, w = rng.randrange(N), rng.randrange(N)
        if v == 0 and w == 0:
            continue
        vec = FracVector(v, w, N)
        m1 = _random_unit_matrix(rng, N)
        m2 = _random_unit_matrix(rng, N)
        assert act_vector(act_vector(vec, m1), m2) == act_vector(vec, m1 * m2)
        # any representative names the same class: shift each entry by a
        # multiple of N, and negate the vector
        shifted = FracVector(-v + N * rng.randrange(-3, 4), -w + N * rng.randrange(-3, 4), N)
        again = MatrixModN(*(e + N * rng.randrange(-3, 4) for e in m1.entries()), N)
        assert shifted == vec and again == m1
        for stored in (*vec.as_tuple(), *shifted.as_tuple(), *m1.entries(), *again.entries()):
            assert type(stored) is int and 0 <= stored < N
        checked += 1


def test_act_vector_never_hits_zero():
    rng = random.Random(99)
    for _ in range(500):
        N = rng.randrange(2, 13)
        v, w = rng.randrange(N), rng.randrange(N)
        if v == 0 and w == 0:
            continue
        out = act_vector(FracVector(v, w, N), _random_unit_matrix(rng, N))
        assert out.as_tuple() != (0, 0)


def test_frac_vector_validation():
    with pytest.raises(InputError):
        FracVector(0, 0, 6)
    assert FracVector(5, 4, 6) == FracVector(1, 2, 6)  # stored sign-canonical
    assert FracVector(7, 1, 6) == FracVector(1, 1, 6)  # stored as residues mod N
    with pytest.raises(InputError, match="moduli differ"):
        act_vector(FracVector(0, 1, 6), MatrixModN(1, 0, 0, 1, 5))
    assert FracVector(6, 7, 6).as_tuple() == (0, 1)  # reduced mod N
    with pytest.raises(InputError, match="FracVector.v must be an integer"):
        FracVector(0.5, 1, 6)
    with pytest.raises(InputError, match="FracVector.w must be an integer"):
        FracVector(0, float("nan"), 6)
    with pytest.raises(InputError, match="FracVector.modulus must be an integer"):
        FracVector(0, 1, "6")
    with pytest.raises(InputError, match=r"FracVector.w must be an integer, got 1.0$"):
        FracVector(0, 1.0, 6)
    with pytest.raises(InputError, match=r"FracVector.w must be an integer, got True$"):
        FracVector(0, True, 6)


def test_matrix_modn_validation():
    with pytest.raises(InputError):
        MatrixModN(2, 0, 0, 2, 6)  # det 4, gcd(4,6) = 2
    assert MatrixModN(7, 0, -6, 13, 6).entries() == (1, 0, 0, 1)  # stored as residues mod N
    with pytest.raises(InputError, match="matching moduli"):
        MatrixModN(1, 0, 0, 1, 6) * MatrixModN(1, 0, 0, 1, 5)
    with pytest.raises(InputError, match="MatrixModN.modulus must be an integer"):
        MatrixModN(1, 0, 0, 1, 6.5)  # not truncated to level 6
    with pytest.raises(InputError, match="MatrixModN.m12 must be an integer"):
        MatrixModN(1, 0.5, 0, 1, 6)
    with pytest.raises(InputError, match=r"MatrixModN.modulus must be an integer, got 6.0$"):
        MatrixModN(1, 0, 0, 1, 6.0)
    # stored as the smaller of (5, 1, 3, 4) and its negation (1, 5, 3, 2)
    assert MatrixModN(5, 1, 3, 4, 6).entries() == (1, 5, 3, 2)
    assert MatrixModN(5, 1, 3, 4, 6) == MatrixModN(1, 5, 3, 2, 6)


def test_matrix_modn_is_its_class_mod_plus_minus_one():
    scalar, identity = MatrixModN(5, 0, 0, 5, 6), MatrixModN(1, 0, 0, 1, 6)
    assert scalar == identity and hash(scalar) == hash(identity)
    assert scalar.is_identity() and scalar.entries() == (1, 0, 0, 1)


@pytest.mark.parametrize(
    "d_int, N",
    [(-20, 6), (-7, 8), (-23, 9), (-8, 12), (-1031, 7), (-71, 30), (-15, 2)],
)
def test_w_group_is_a_group_mod_plus_minus_one(d_int, N):
    # W/{+-1} is closed under products and inverses: every product of two
    # classes is a class of the list, and every class has an inverse there
    group = w_group(validate_discriminant(d_int), N)
    identity = MatrixModN(1, 0, 0, 1, N)
    assert group[0] == identity
    members = set(group)
    assert len(members) == len(group)
    for x in group:
        products = {x * y for y in group}
        assert products <= members, (d_int, N, x.entries())
        assert identity in products, (d_int, N, x.entries())


def test_conjugate_indices_counts_and_first():
    def count(d, N):
        forms, group = conjugate_indices(d, N)
        return len(forms) * len(group)

    forms, group = conjugate_indices(D20, 6)
    assert group[0].is_identity()
    assert forms[0].as_tuple() == (1, 0, 5)
    assert count(D20, 6) == 8
    assert count(validate_discriminant(-7), 2) == 1
    assert count(D20, 2) == 4
    with pytest.raises(InputError, match="extra units"):
        conjugate_indices(validate_discriminant(-4), 6)


def test_conjugate_indices_grouped_by_form():
    # the index set is the product of its two factors, each in its own order
    forms, group = conjugate_indices(D20, 6)
    assert [Q.as_tuple() for Q in forms] == [(1, 0, 5), (2, 2, 3)]
    assert forms == reduced_forms(D20)
    assert group == w_group(D20, 6) and len(group) == 4
