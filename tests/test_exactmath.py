"""Tests for the exact substrate and the precision-carrying complex values."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from siegelcm import (
    InputError,
    QuadIrrational,
    context,
    to_complex,
)
from siegelcm.exactmath import conjugate_key

from helpers import agreement_bits


def test_quad_irrational_validation():
    QuadIrrational(p=-1, q=2, d=-7)
    with pytest.raises(InputError):
        QuadIrrational(p=0, q=0, d=-7)
    with pytest.raises(InputError):
        QuadIrrational(p=0, q=2, d=5)
    with pytest.raises(InputError):
        QuadIrrational(p=0, q=2, d=-5)  # -5 = 3 mod 4
    with pytest.raises(InputError, match="QuadIrrational.p must be an integer"):
        QuadIrrational(p=0.5, q=2, d=-20)
    with pytest.raises(InputError, match="QuadIrrational.d must be an integer"):
        QuadIrrational(p=0, q=2, d=-20.5)
    with pytest.raises(InputError, match=r"QuadIrrational.q must be an integer, got 2.0$"):
        QuadIrrational(p=0, q=2.0, d=-20)


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
    r = context(256).mpc(z)
    ctx = context(256)
    assert r.context is ctx
    for part, exact in ((r.real, z.real), (r.imag, z.imag)):
        assert part._mpf_[3] <= 256  # bit count of the mantissa
        assert part == ctx.mpf(exact)
    a = context(128).mpc(3, 4)
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
    # 128.0, Fraction(128) and Decimal(128) hash and compare as 128, yet miss its cached
    # context: lru_cache keys a lone int argument apart from every other type
    context(128)
    for bits in (128.0, Fraction(128), Decimal(128)):
        with pytest.raises(InputError, match=f"integer >= 2 bits, got {bits}$"):
            context(bits)


def test_conjugate_key_pairs_a_value_with_its_conjugate_alone():
    z = context(128).mpc(3, -2) / 7
    assert conjugate_key(z) == conjugate_key(z.conjugate())
    real = context(128).mpc(5)
    assert conjugate_key(real) == conjugate_key(real.conjugate())
    others = [context(128).mpc(-z.real, z.imag), z * 2, context(129).mpc(z), context(128).mpc(z.real, 0)]
    assert len({conjugate_key(w) for w in [z, *others]}) == len(others) + 1
