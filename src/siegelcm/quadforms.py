"""Fundamental discriminants, reduced binary quadratic forms, and CM points.

A form a X^2 + b X Y + c Y^2 of discriminant d = b^2 - 4ac < 0 is reduced
when -a < b <= a < c, or 0 <= b <= a = c.  Each class of primitive positive
definite forms contains exactly one reduced form, so enumerating them gives
the form class group as a set; its size is the class number h(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import InputError
from .exactmath import QuadIrrational, is_integral


def _squarefree(n: int) -> bool:
    n = abs(n)
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Discriminant:
    """A fundamental discriminant of an imaginary quadratic field.

    Either d = 1 mod 4 and squarefree, or d = 4m with m = 2 or 3 mod 4
    and m squarefree.  Use :func:`validate_discriminant` to construct.
    """

    d: int

    def __post_init__(self):
        if self.d >= 0:
            raise InputError(f"discriminant must be negative, got {self.d}")
        r = self.d % 4
        if r not in (0, 1):
            raise InputError(f"discriminant must be 0 or 1 mod 4, got {self.d}")
        if r == 1:
            ok = _squarefree(self.d)
        else:
            m = self.d // 4
            ok = m % 4 in (2, 3) and _squarefree(m)
        if not ok:
            raise InputError(f"{self.d} is not a fundamental discriminant")


def validate_discriminant(d: int) -> Discriminant:
    """Check d is an integer < 0, 0 or 1 mod 4, and the squarefree conditions."""
    if not is_integral(d):
        raise InputError(f"discriminant must be an integer, got {d}")
    return Discriminant(int(d))


@dataclass(frozen=True)
class QuadForm:
    """A reduced primitive positive definite binary quadratic form (a, b, c)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0:
            raise InputError(f"form must be positive definite: a = {self.a}")
        if self.discriminant >= 0:
            raise InputError(f"form must have negative discriminant: {self.as_tuple()}")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise InputError(f"form must be primitive: {self.as_tuple()}")
        reduced = (-self.a < self.b <= self.a < self.c) or (0 <= self.b <= self.a == self.c)
        if not reduced:
            raise InputError(f"form is not reduced: {self.as_tuple()}")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def reduced_forms(d: Discriminant) -> list[QuadForm]:
    """All reduced forms of discriminant d, principal form first.

    The list is sorted by (a, b, c); since the principal form is the unique
    one with a = 1, it leads.  Reduction forces a <= sqrt(|d|/3), so for
    each a in that range we run b over (-a, a], solve 4ac = b^2 - d when it
    divides, and keep primitive solutions satisfying the reduction
    inequalities.  The list length is the class number h(d).
    """
    disc = d.d
    out = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if a < c or (a == c and b >= 0):
                if gcd(gcd(a, b), c) == 1:
                    out.append(QuadForm(a, b, c))
    out.sort(key=QuadForm.as_tuple)
    return out


def principal_form(d: Discriminant) -> QuadForm:
    """The principal form (1, B, C): B = d mod 2 and C = (B - d)/4.

    theta is its CM point and a root of X^2 + BX + C; every form's b = B mod 2.
    """
    B = d.d % 2
    return QuadForm(1, B, (B - d.d) // 4)


def theta_of_form(Q: QuadForm) -> QuadIrrational:
    """The CM point (-b + sqrt(b^2 - 4ac))/(2a) of Q, from (a, b, c) alone."""
    return QuadIrrational(p=-Q.b, q=2 * Q.a, d=Q.discriminant)


def theta(d: Discriminant) -> QuadIrrational:
    """The standard generator (-B + sqrt(d))/2, the CM point of the principal form."""
    return theta_of_form(principal_form(d))
