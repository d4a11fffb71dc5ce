"""Conjugate enumeration, the smallness certificate, and integer polynomials.

The base singular value is x = g_{(0,1/N)}(theta)^{-12N/gcd(6,N)}.  Its
conjugates are indexed by (alpha, Q) pairs; each one is evaluated as the
same kind of power at the CM point of Q, with the vector (0, 1) pushed
through alpha * beta_Q.  The certificate checks |x^gamma / x| < 1 for all
non-identity conjugates and reports the least exponent m whose m-th powers
clear the 1/#G threshold; the product over all conjugates of (X - x^gamma)
is then expanded and snapped to an integer polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

import mpmath

from .errors import DegenerateValueError, InputError, SnapFailureError
from .exactmath import (
    DEFAULT_GUARD,
    DEFAULT_PRECISION,
    QuadIrrational,
    context,
    to_complex,
)
from .quadforms import Discriminant, theta, theta_of_form
from .reciprocity import (
    ConjugateIndex,
    FracVector,
    act_vector,
    beta_modN,
    conjugate_indices,
)
from .siegel_eval import siegel_power

# Added to the observed maximum ratio before both certificate comparisons,
# so the certificate cannot pass (or m come out small) on rounding noise.
RATIO_SAFETY_MARGIN = Fraction(1, 2**64)

# Largest distance of a coefficient from an integer (and of its imaginary
# part from zero) that the snap accepts.
SNAP_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ConjugateRecord:
    """One conjugate: its index, transformed vector, CM point, and value.

    ``value`` is an mpc of ``context(precision)``; records pickle.
    """

    index: ConjugateIndex
    vector: FracVector
    point: QuadIrrational
    value: mpmath.mpc


@dataclass(frozen=True)
class CriterionReport:
    """Certificate data for one run, fields in the order the CLI prints them.

    ``ratios`` are |x^gamma / x| per non-identity conjugate, in index
    order.  ``max_ratio`` is their maximum plus the 2^-64 safety margin;
    ``passes`` and ``m`` are decided from that margined value exactly, so
    passes iff max_ratio < 1, and when passing, m is the least positive
    integer with max_ratio^m <= 1/group_order.
    """

    passes: bool
    max_ratio: float
    m: int | None
    group_order: int
    ratios: tuple[float, ...]


@dataclass(frozen=True)
class IntPolynomial:
    """A snapped monic integer polynomial, coefficients degree-descending."""

    coefficients: tuple[int, ...]
    max_rounding_residual: float
    max_imag_residual: float

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _exact_fraction(x) -> Fraction:
    """Exact value of a finite mpf (dyadic rational) as a Fraction."""
    if not mpmath.isfinite(x):
        raise InputError(f"expected a finite value, got {x}")
    sign, man, exp, _ = x._mpf_
    f = Fraction(int(man), 1) * Fraction(2) ** int(exp)
    return -f if sign else f


def conjugates(
    d: Discriminant, N: int, precision: int = DEFAULT_PRECISION
) -> list[ConjugateRecord]:
    """Evaluate every conjugate of the base value, identity record first.

    For each index (alpha, Q): the vector is (0, 1) alpha beta_Q in
    canonical form, the point is the CM point of Q, and the value is the
    -12N/gcd(6,N) power of g at that point, carried at ``precision`` bits
    (evaluated with a fixed DEFAULT_GUARD = 64 extra working bits).  The
    indices come grouped by form, so beta_Q, the point and tau are made
    once per form.  The principal form has beta = 1, so the first record
    is the base value itself with vector (0, 1).
    """
    base = FracVector.make(0, 1, N)
    records = []
    for Q, indices in groupby(conjugate_indices(d, N), key=attrgetter("form")):
        beta = beta_modN(Q, N)
        point = theta_of_form(Q)
        tau = to_complex(point, precision + DEFAULT_GUARD)
        for idx in indices:
            vector = act_vector(base, idx.alpha * beta)
            value = siegel_power(
                vector.v, vector.w, tau, N, "-", precision=precision, guard=DEFAULT_GUARD
            )
            records.append(ConjugateRecord(index=idx, vector=vector, point=point, value=value))
    return records


def least_certifying_power(max_ratio, group_order: int) -> int:
    """Least m >= 1 with max_ratio^m <= 1/group_order.

    ``max_ratio`` may be a float, Fraction, or mpf below 1; it is converted
    to an exact rational, so boundary cases like 0.5^3 = 1/8 are decided
    without rounding.  Ratios so close to 1 that m exceeds 10^4 are decided
    by 128-bit logarithms instead (exact powers would be astronomically
    large there, and one-off minimality has no practical meaning).
    """
    if group_order < 1:
        raise InputError(f"group order must be positive, got {group_order}")
    if hasattr(max_ratio, "_mpf_"):
        ratio = _exact_fraction(max_ratio)
    else:
        try:
            ratio = Fraction(max_ratio)
        except (OverflowError, ValueError) as exc:
            raise InputError(f"max_ratio must be finite, got {max_ratio}") from exc
    if ratio >= 1:
        raise InputError(f"max_ratio must be < 1, got {max_ratio}")
    if ratio <= 0 or group_order == 1:
        return 1
    bound = Fraction(1, group_order)
    ctx = context(128)
    # log1p of the exact gap: log of the rounded ratio is 0 within 2^-128 of 1
    gap = 1 - ratio
    log_ratio = ctx.log1p(-ctx.mpf(gap.numerator) / gap.denominator)
    estimate = max(1, int(ctx.ceil(-ctx.log(group_order) / log_ratio)))
    if estimate > 10**4:
        return estimate
    m = estimate
    while ratio**m > bound:
        m += 1
    while m > 1 and ratio ** (m - 1) <= bound:
        m -= 1
    return m


def check_criterion(records: list[ConjugateRecord]) -> CriterionReport:
    """Certify |x^gamma / x| < 1 over the non-identity records.

    Ratios are moduli at working precision, relative to the identity
    record (which must come first).  The maximum gets the 2^-64 safety
    margin before the < 1 test and before the exponent search.
    """
    if not records:
        raise InputError("need at least one conjugate record")
    prec = max(r.value.context.prec for r in records)
    ctx = context(prec + 16)
    moduli = [abs(r.value) for r in records]
    base = moduli[0]
    # m > 0 is false for NaN too, so all ratios compare and max() is exact
    if not (all(m > 0 for m in moduli) and ctx.isfinite(base)):
        raise DegenerateValueError("a conjugate is zero or NaN, or the base is infinite")
    ratios = [ctx.fdiv(m, base) for m in moduli[1:]]
    raw_max = _exact_fraction(max(ratios)) if ratios else Fraction(0)
    margined = raw_max + RATIO_SAFETY_MARGIN
    passes = margined < 1
    m = least_certifying_power(margined, len(records)) if passes else None
    return CriterionReport(
        passes=passes,
        max_ratio=float(margined),
        m=m,
        group_order=len(records),
        ratios=tuple(float(r) for r in ratios),
    )


def minimal_polynomial(records: list[ConjugateRecord]) -> IntPolynomial:
    """Expand prod (X - value) over the records and snap to integers.

    Expansion runs 64 bits above the records' precision.  Every
    coefficient's |imag| and distance to the nearest integer are recorded;
    if either maximum exceeds SNAP_TOLERANCE (1e-10) the snap is refused,
    since that indicates either insufficient working precision for the
    coefficient sizes at hand or genuinely non-integral coefficients.
    Callers should pass records from a run whose certificate passed.
    """
    if not records:
        raise InputError("need at least one conjugate record")
    prec = max(r.value.context.prec for r in records)
    ctx = context(prec + 64)
    coeffs = [ctx.mpc(1)]
    for rec in records:
        root = ctx.mpc(rec.value)
        nxt = coeffs + [ctx.mpc(0)]
        for k in range(len(coeffs)):
            nxt[k + 1] -= root * coeffs[k]
        coeffs = nxt
    snapped = []
    max_round = ctx.mpf(0)
    max_imag = ctx.mpf(0)
    for c in coeffs:
        nearest = ctx.nint(c.real)
        max_round = max(max_round, abs(c.real - nearest))
        max_imag = max(max_imag, abs(c.imag))
        snapped.append(int(nearest))
    if max_round > SNAP_TOLERANCE or max_imag > SNAP_TOLERANCE:
        raise SnapFailureError(
            f"coefficients are not within {SNAP_TOLERANCE} of integers "
            f"(rounding residual {ctx.nstr(max_round, 6)}, imaginary residual "
            f"{ctx.nstr(max_imag, 6)}); raise the working precision if the "
            f"residuals look like rounding noise",
            max_rounding_residual=float(max_round),
            max_imag_residual=float(max_imag),
        )
    return IntPolynomial(
        coefficients=tuple(snapped),
        max_rounding_residual=float(max_round),
        max_imag_residual=float(max_imag),
    )


def siegel_ramachandra_invariant(
    d: Discriminant, N: int, precision: int = DEFAULT_PRECISION
) -> mpmath.mpc:
    """The 12N-th power g_{(0,1/N)}(theta)^{12N} at the standard generator."""
    tau = to_complex(theta(d), precision + DEFAULT_GUARD)
    return siegel_power(0, 1, tau, N, "+", precision=precision, guard=DEFAULT_GUARD)
