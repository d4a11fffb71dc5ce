"""Tests for discriminant validation and reduced form enumeration."""

from __future__ import annotations

from math import gcd

import pytest

from siegelcm import (
    InputError,
    QuadForm,
    principal_form,
    reduced_forms,
    theta,
    theta_of_form,
    validate_discriminant,
)

from oracles import CLASS_NUMBERS, oracle_is_fundamental, oracle_reduced_forms


def test_validate_accepts_fundamental():
    assert validate_discriminant(-20).d == -20
    assert validate_discriminant(-7).d == -7
    assert validate_discriminant(-8).d == -8
    # -3, -4 are fine here; only the matrix-group layer rejects them
    assert validate_discriminant(-3).d == -3
    assert validate_discriminant(-4).d == -4


def test_validate_rejections():
    with pytest.raises(InputError, match="must be negative"):
        validate_discriminant(5)
    with pytest.raises(InputError, match="must be negative"):
        validate_discriminant(0)
    with pytest.raises(InputError, match="0 or 1 mod 4"):
        validate_discriminant(-14)  # 2 mod 4
    with pytest.raises(InputError, match="not a fundamental"):
        validate_discriminant(-12)  # 4 * (-3), -3 = 1 mod 4
    with pytest.raises(InputError, match="not a fundamental"):
        validate_discriminant(-63)  # 9 * -7
    with pytest.raises(InputError, match="not a fundamental"):
        validate_discriminant(-100)  # 4 * (-25)
    with pytest.raises(InputError):
        validate_discriminant(-20.9)  # not truncated to -20
    for d in (float("nan"), float("-inf")):
        with pytest.raises(InputError, match="must be an integer"):
            validate_discriminant(d)


def test_validation_agrees_with_oracle_below_200():
    for d in range(-199, 0):
        expected = oracle_is_fundamental(d)
        if expected:
            assert validate_discriminant(d).d == d
        else:
            with pytest.raises(InputError, match="0 or 1 mod 4|not a fundamental"):
                validate_discriminant(d)


def test_reduced_forms_examples():
    assert [q.as_tuple() for q in reduced_forms(validate_discriminant(-20))] == [
        (1, 0, 5),
        (2, 2, 3),
    ]
    assert [q.as_tuple() for q in reduced_forms(validate_discriminant(-7))] == [(1, 1, 2)]
    # frozen from the exhaustive oracle
    assert [q.as_tuple() for q in reduced_forms(validate_discriminant(-23))] == [
        (1, 1, 6),
        (2, -1, 3),
        (2, 1, 3),
    ]


def test_reduced_forms_against_oracle():
    for d in range(-199, 0):
        if not oracle_is_fundamental(d):
            continue
        ours = [q.as_tuple() for q in reduced_forms(validate_discriminant(d))]
        assert sorted(ours) == oracle_reduced_forms(d), f"mismatch at d={d}"


def test_emitted_forms_satisfy_all_invariants():
    for d in (-20, -23, -84, -95):
        disc = validate_discriminant(d)
        forms = reduced_forms(disc)
        principal = [q for q in forms if q.a == 1]
        assert len(principal) == 1
        assert forms[0] is principal[0] or forms[0] == principal[0]
        for q in forms:
            a, b, c = q.as_tuple()
            assert b * b - 4 * a * c == d
            assert gcd(gcd(a, b), c) == 1
            assert (-a < b <= a < c) or (0 <= b <= a == c)


def test_class_numbers_match_independent_table():
    for d, h in CLASS_NUMBERS.items():
        assert len(reduced_forms(validate_discriminant(d))) == h, f"h({d})"


def test_quadform_constructor_rejects_bad_forms():
    with pytest.raises(InputError):
        QuadForm(2, 2, 4)  # imprimitive
    with pytest.raises(InputError):
        QuadForm(3, 0, 2)  # not reduced (a > c)
    with pytest.raises(InputError):
        QuadForm(-1, 0, 5)  # not positive definite
    with pytest.raises(InputError):
        QuadForm(1, 0, -5)  # positive discriminant


def test_theta_examples():
    assert theta(validate_discriminant(-20)) == theta_of_form(QuadForm(1, 0, 5))
    t = theta(validate_discriminant(-20))
    assert (t.p, t.q, t.d) == (0, 2, -20)
    t = theta(validate_discriminant(-7))
    assert (t.p, t.q, t.d) == (-1, 2, -7)
    t = theta(validate_discriminant(-8))
    assert (t.p, t.q, t.d) == (0, 2, -8)


def test_theta_of_form_examples():
    assert theta_of_form(QuadForm(1, 0, 5)) == theta(validate_discriminant(-20))
    t = theta_of_form(QuadForm(2, 2, 3))
    assert (t.p, t.q, t.d) == (-2, 4, -20)  # (-2 + sqrt(-20))/4 = (-1 + sqrt(-5))/2
    t = theta_of_form(QuadForm(1, 1, 6))
    assert (t.p, t.q, t.d) == (-1, 2, -23)


def test_theta_of_principal_form_equals_theta():
    for d in CLASS_NUMBERS:
        disc = validate_discriminant(d)
        principal = reduced_forms(disc)[0]
        tq = theta_of_form(principal)
        t = theta(disc)
        # both live over q = 2; equality is exact structural equality
        assert (tq.p, tq.q, tq.d) == (t.p, t.q, t.d)


def test_principal_form():
    assert principal_form(validate_discriminant(-20)) == QuadForm(1, 0, 5)
    assert principal_form(validate_discriminant(-7)) == QuadForm(1, 1, 2)
    assert principal_form(validate_discriminant(-4)) == QuadForm(1, 0, 1)
    for d in CLASS_NUMBERS:
        disc = validate_discriminant(d)
        assert principal_form(disc) == reduced_forms(disc)[0]
        assert theta(disc) == theta_of_form(principal_form(disc))
