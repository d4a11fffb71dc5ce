"""Tests for the exact substrate and the precision-carrying complex values."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from siegelcm import (
    InputError,
    QuadIrrational,
    agreement_bits,
    bernoulli2,
    context,
    rounded,
    to_complex,
)


def test_bernoulli2_values():
    assert bernoulli2(Fraction(0)) == Fraction(1, 6)
    assert bernoulli2(Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli2(Fraction(1, 6)) == Fraction(1, 36)


def test_bernoulli2_symmetry_about_half():
    rng = random.Random(7)
    for _ in range(200):
        r = Fraction(rng.randrange(-50, 50), rng.randrange(1, 50))
        assert bernoulli2(r) == bernoulli2(1 - r)


def test_quad_irrational_validation():
    QuadIrrational(p=-1, q=2, d=-7)
    with pytest.raises(InputError):
        QuadIrrational(p=0, q=0, d=-7)
    with pytest.raises(InputError):
        QuadIrrational(p=0, q=2, d=5)
    with pytest.raises(InputError):
        QuadIrrational(p=0, q=2, d=-5)  # -5 = 3 mod 4


def _close_to_digits(x, digits: str, bits: int = 60) -> bool:
    with mpmath.workprec(120):
        expected = mpmath.mpf(digits)
        return abs(x - expected) < abs(expected) * mpmath.mpf(2) ** -bits


def test_to_complex_examples():
    z = to_complex(QuadIrrational(p=0, q=2, d=-20), 64)
    assert z.real == 0
    assert _close_to_digits(z.imag, "2.2360679774997896964")
    assert z.imag > 0

    z = to_complex(QuadIrrational(p=-1, q=2, d=-20), 64)
    assert z.real == mpmath.mpf("-0.5")
    assert _close_to_digits(z.imag, "2.2360679774997896964")

    # the CM point of the non-principal form of discriminant -20
    z = to_complex(QuadIrrational(p=-2, q=4, d=-20), 64)
    assert z.real == mpmath.mpf("-0.5")
    assert _close_to_digits(z.imag, "1.1180339887498948482")

    z = to_complex(QuadIrrational(p=-1, q=2, d=-7), 64)
    assert _close_to_digits(z.imag, "1.3228756555322952953")


def test_to_complex_rejects_nonnegative_radicand():
    with pytest.raises(InputError):
        QuadIrrational(p=0, q=2, d=4)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_to_complex_double_precision_consistency(prec):
    x = QuadIrrational(p=-3, q=10, d=-84)
    lo = to_complex(x, prec)
    hi = to_complex(x, 2 * prec)
    assert agreement_bits(lo, hi) >= prec - 2


def test_rounded_rounds_both_parts():
    wide = context(512)
    z = wide.mpc(wide.mpf(1) / 3, wide.mpf(2) / 7)
    r = rounded(z, 256)
    ctx = context(256)
    assert r.context is ctx
    for part, exact in ((r.real, z.real), (r.imag, z.imag)):
        assert part._mpf_[3] <= 256  # bit count of the mantissa
        assert part == ctx.mpf(exact)
    a = rounded(mpmath.mpc(3, 4), 128)
    assert abs(a) == 5
    assert mpmath.almosteq(a**2, context(128).mpc(-7, 24), rel_eps=2**-120)


def test_no_global_precision_mutation():
    before = mpmath.mp.prec
    to_complex(QuadIrrational(p=0, q=2, d=-20), 800)
    ctx = context(555)
    ctx.sqrt(2)
    assert mpmath.mp.prec == before


def test_context_rejects_tiny_precision():
    with pytest.raises(InputError):
        context(1)
    with pytest.raises(InputError, match="integer"):
        context(256.5)  # not truncated to 256
    for bits in (float("nan"), float("inf"), "256"):
        with pytest.raises(InputError, match="integer"):
            context(bits)
