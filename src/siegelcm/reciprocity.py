"""Reciprocity matrices: local case tables, their CRT lift, and the W group.

Everything here lives in GL_2(Z/NZ) modulo +-identity.  ``MatrixModN``
stores each class as one representative, so equality, hashing and products
act on the classes: between M and -M (entries as least nonnegative
residues) it keeps the lexicographically smaller entry tuple (m11, m12,
m21, m22).  For N = 2 the two candidates coincide.

Row vectors (v/N, w/N) are acted on from the right and identified modulo
Z^2 and modulo sign; the representative keeps the lexicographically
smaller of (v, w) and (-v, -w) as least nonnegative residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InputError
from .exactmath import prime_powers, require_integers, require_level
from .quadforms import Discriminant, QuadForm, principal_form, reduced_forms

IntMatrix = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class MatrixModN:
    """An invertible 2x2 matrix over Z/NZ modulo +-1; any integer representative is stored
    as its class's matrix, the smaller entry tuple of M and -M as residues in [0, N)."""

    m11: int
    m12: int
    m21: int
    m22: int
    modulus: int

    def __post_init__(self):
        require_integers(self, "m11", "m12", "m21", "m22", "modulus")
        n = require_level(self.modulus)
        m = tuple(e % n for e in self.entries())
        for name, e in zip(("m11", "m12", "m21", "m22"), min(m, tuple(-e % n for e in m))):
            object.__setattr__(self, name, e)
        if gcd(self.det(), n) != 1:
            raise InputError(f"matrix {self.entries()} is not invertible mod {n}")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.m11, self.m12, self.m21, self.m22)

    def is_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1)

    def det(self) -> int:
        return (self.m11 * self.m22 - self.m12 * self.m21) % self.modulus

    def __mul__(self, other: "MatrixModN") -> "MatrixModN":
        if self.modulus != other.modulus:
            raise InputError("matrix product needs matching moduli")
        return MatrixModN(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
            self.modulus,
        )


@dataclass(frozen=True)
class FracVector:
    """The class of the row vector (v/N, w/N) mod Z^2 and mod sign.

    Any integer representative (v, w) is stored as the class's
    sign-canonical pair of residues in [0, N).
    """

    v: int
    w: int
    modulus: int

    def __post_init__(self):
        require_integers(self, "v", "w", "modulus")
        n = require_level(self.modulus)
        v, w = self.v % n, self.w % n
        if v == 0 and w == 0:
            raise InputError("vector must be nonzero mod Z^2")
        v, w = min((v, w), (-v % n, -w % n))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def as_tuple(self) -> tuple[int, int]:
        return (self.v, self.w)


def beta_local(Q: QuadForm, p: int) -> IntMatrix:
    """The local matrix attached to (Q, p), by the three-way case table.

    The split is on p | a and p | c; primitivity of Q forbids p dividing
    all of a, b, c, so the table is total and its determinant (a, c, or
    a + b + c in the respective cases) is prime to p.  b has the parity of
    Q's own discriminant b^2 - 4ac, and lo, hi are b halved down and up to
    integers, so lo + hi = b.
    """
    a, b, c = Q.a, Q.b, Q.c
    lo, hi = (b - b % 2) // 2, (b + b % 2) // 2
    if a % p:
        return ((a, lo), (0, 1))
    if c % p:
        return ((-hi, -c), (1, 0))
    return ((-a - hi, -c - lo), (1, -1))


def beta_modN(Q: QuadForm, N: int) -> MatrixModN:
    """Glue the local matrices mod p^e along every p^e || N into one class.

    One Chinese-remainder pass lifts the whole matrix: with rest = N/p^e,
    e_p = rest * (rest^-1 mod p^e) is 1 mod p^e and 0 mod N/p^e, so
    sum_p e_p beta_local(Q, p) agrees with each local matrix mod its p^e.
    The result is invertible mod N; ``MatrixModN`` stores its +-1 class.
    """
    N = require_level(N)
    beta = (0, 0, 0, 0)
    for p, pe in prime_powers(N):
        rest = N // pe
        e_p = rest * pow(rest, -1, pe)
        (m11, m12), (m21, m22) = beta_local(Q, p)
        beta = tuple(x + e_p * m for x, m in zip(beta, (m11, m12, m21, m22)))
    return MatrixModN(*beta, N)


def w_group(d: Discriminant, N: int) -> list[MatrixModN]:
    """All classes of (t - Bs, -Cs; s, t) with unit determinant, mod +-1.

    B and C come from the principal form (1, B, C), so the matrix is the
    action of t + s theta on the basis (theta, 1).  Runs over (t, s) in
    (Z/N)^2 keeping its determinant, the norm t^2 - Bst + Cs^2, prime to N,
    and takes each pair +-(t, s) once, as (t, s) <= (-t, -s), so each class
    comes once, as the matrix ``MatrixModN`` stores (bottom row +-(s, t)).
    Order: identity first, then lexicographic in (m22, m21).  Rejects d in
    {-3, -4}, where the class count would overstate the Galois group.
    """
    N = require_level(N)
    _, B, C = principal_form(d).as_tuple()
    if d.d in (-3, -4):
        raise InputError(f"d = {d.d} needs extra units; index set unsupported")
    group = [
        MatrixModN(t - B * s, -C * s, s, t, N)
        for t in range(N)
        for s in range(N)
        if (t, s) <= (-t % N, -s % N) and gcd(t * t - B * s * t + C * s * s, N) == 1
    ]
    return sorted(group, key=lambda m: (not m.is_identity(), m.m22, m.m21))


def act_vector(vec: FracVector, M: MatrixModN) -> FracVector:
    """Right action (v, w) -> (v, w) M mod N, reduced to canonical form."""
    if vec.modulus != M.modulus:
        raise InputError("vector and matrix moduli differ")
    v, w = vec.v, vec.w
    return FracVector(v * M.m11 + w * M.m21, v * M.m12 + w * M.m22, vec.modulus)


def conjugate_indices(d: Discriminant, N: int) -> tuple[list[QuadForm], list[MatrixModN]]:
    """The index set C(d) x W/{+-1} of the conjugates, as its two factors.

    Returns (forms, group): the reduced forms of d, principal form first,
    and the W classes of :func:`w_group`, identity first, so the pair
    (identity, principal form) indexes the base value.  There are h(d)
    times #W/{+-1} indices.  W is made first, so d in {-3, -4} is
    rejected before any form is enumerated.
    """
    group = w_group(d, N)
    return reduced_forms(d), group
