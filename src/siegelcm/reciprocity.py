"""Reciprocity matrices: local case tables, their CRT lift, and the W group.

Everything here lives in GL_2(Z/NZ) modulo +-identity.  A total,
deterministic choice of representative is needed for equality tests and
stable output: between M and -M (entries as least nonnegative residues) we
keep the lexicographically smaller entry tuple (m11, m12, m21, m22).  For
N = 2 the two candidates coincide and the rule is vacuously the identity.

Row vectors (v/N, w/N) are acted on from the right and identified modulo
Z^2 and modulo sign; the representative keeps the lexicographically
smaller of (v, w) and (-v, -w) as least nonnegative residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ExcludedFieldError, InputError
from .quadforms import Discriminant, QuadForm, principal_form, reduced_forms

IntMatrix = tuple[tuple[int, int], tuple[int, int]]


def _require_level(N: int) -> int:
    if int(N) != N or N < 2:
        raise InputError(f"level must be an integer >= 2, got {N}")
    return int(N)


@dataclass(frozen=True)
class MatrixModN:
    """An invertible 2x2 matrix over Z/NZ, entries stored as residues in [0, N)."""

    m11: int
    m12: int
    m21: int
    m22: int
    modulus: int

    def __post_init__(self):
        _require_level(self.modulus)
        n = self.modulus
        if not all(0 <= e < n for e in self.entries()):
            raise ValueError(f"entries must be residues mod {n}: {self.entries()}")
        if gcd(self.det(), n) != 1:
            raise ValueError(f"matrix {self.entries()} is not invertible mod {n}")

    @classmethod
    def make(cls, m11, m12, m21, m22, modulus) -> "MatrixModN":
        n = _require_level(modulus)
        return cls(m11 % n, m12 % n, m21 % n, m22 % n, n)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.m11, self.m12, self.m21, self.m22)

    def is_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1)

    def det(self) -> int:
        return (self.m11 * self.m22 - self.m12 * self.m21) % self.modulus

    def canonical(self) -> "MatrixModN":
        """The +-1 class representative: lexicographically smaller of M, -M."""
        neg = tuple((-e) % self.modulus for e in self.entries())
        return MatrixModN(*min(self.entries(), neg), self.modulus)

    def __mul__(self, other: "MatrixModN") -> "MatrixModN":
        if self.modulus != other.modulus:
            raise ValueError("matrix product needs matching moduli")
        n = self.modulus
        return MatrixModN(
            (self.m11 * other.m11 + self.m12 * other.m21) % n,
            (self.m11 * other.m12 + self.m12 * other.m22) % n,
            (self.m21 * other.m11 + self.m22 * other.m21) % n,
            (self.m21 * other.m12 + self.m22 * other.m22) % n,
            n,
        )


@dataclass(frozen=True)
class FracVector:
    """The class of the row vector (v/N, w/N) mod Z^2 and mod sign."""

    v: int
    w: int
    modulus: int

    def __post_init__(self):
        n = _require_level(self.modulus)
        if not (0 <= self.v < n and 0 <= self.w < n):
            raise ValueError(f"vector entries must be residues mod {n}")
        if self.v == 0 and self.w == 0:
            raise ValueError("vector must be nonzero mod Z^2")
        if (self.v, self.w) != min((self.v, self.w), ((-self.v) % n, (-self.w) % n)):
            raise ValueError(f"vector ({self.v}, {self.w}) is not sign-canonical")

    @classmethod
    def make(cls, v: int, w: int, modulus: int) -> "FracVector":
        n = _require_level(modulus)
        v, w = v % n, w % n
        return cls(*min((v, w), ((-v) % n, (-w) % n)), n)

    def as_tuple(self) -> tuple[int, int]:
        return (self.v, self.w)


@dataclass(frozen=True)
class ConjugateIndex:
    """One index (alpha, Q): alpha is a W class's canonical matrix (:func:`w_group`)."""

    alpha: MatrixModN
    form: QuadForm


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


def _prime_powers(N: int) -> list[tuple[int, int]]:
    out, n, p = [], N, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, p**e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, n))
    return out


def beta_modN(Q: QuadForm, N: int) -> MatrixModN:
    """Glue the local matrices mod p^e along every p^e || N, canonically.

    One Chinese-remainder pass lifts the whole matrix: with rest = N/p^e,
    e_p = rest * (rest^-1 mod p^e) is 1 mod p^e and 0 mod N/p^e, so
    sum_p e_p beta_local(Q, p) agrees with each local matrix mod its p^e.
    The result is invertible mod N and returned as its +-1 class
    representative.
    """
    N = _require_level(N)
    beta = (0, 0, 0, 0)
    for p, pe in _prime_powers(N):
        rest = N // pe
        e_p = rest * pow(rest, -1, pe)
        (m11, m12), (m21, m22) = beta_local(Q, p)
        beta = tuple(x + e_p * m for x, m in zip(beta, (m11, m12, m21, m22)))
    return MatrixModN.make(*beta, N).canonical()


def w_group(d: Discriminant, N: int) -> list[MatrixModN]:
    """All classes of (t - Bs, -Cs; s, t) with unit determinant, mod +-1.

    B and C come from the principal form (1, B, C), so the matrix is the
    action of t + s theta on the basis (theta, 1).  Runs over (t, s) in
    (Z/N)^2 keeping its determinant, the norm t^2 - Bst + Cs^2, prime to N,
    and returns each class once as its canonical matrix, whose bottom row
    (m21, m22) is (s, t) again.  Deterministic order: identity first, then
    lexicographic in (t, s) = (m22, m21).  Rejects d in {-3, -4}, where
    the class count would overstate the Galois group.
    """
    N = _require_level(N)
    if d.d in (-3, -4):
        raise ExcludedFieldError(f"d = {d.d} needs extra units; index set unsupported")
    _, B, C = principal_form(d).as_tuple()
    group = {
        MatrixModN.make(t - B * s, -C * s, s, t, N).canonical()
        for t in range(N)
        for s in range(N)
        if gcd(t * t - B * s * t + C * s * s, N) == 1
    }
    return sorted(group, key=lambda m: (not m.is_identity(), m.m22, m.m21))


def act_vector(vec: FracVector, M: MatrixModN) -> FracVector:
    """Right action (v, w) -> (v, w) M mod N, reduced to canonical form."""
    if vec.modulus != M.modulus:
        raise ValueError("vector and matrix moduli differ")
    v, w = vec.v, vec.w
    return FracVector.make(v * M.m11 + w * M.m21, v * M.m12 + w * M.m22, vec.modulus)


def conjugate_indices(d: Discriminant, N: int) -> list[ConjugateIndex]:
    """The full index list: every (alpha, Q), grouped by form.

    First entry is (identity, principal form); within each form the W
    classes come in w_group order.  The length is #W/{+-1} times h(d).
    """
    N = _require_level(N)
    group = w_group(d, N)
    return [
        ConjugateIndex(alpha=alpha, form=Q)
        for Q in reduced_forms(d)
        for alpha in group
    ]
