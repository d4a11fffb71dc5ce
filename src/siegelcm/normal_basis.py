"""Conjugate enumeration, the smallness certificate, and integer polynomials.

The base singular value is x = g_{(0,1/N)}(theta)^{-12N/gcd(6,N)}.  Its
conjugates are indexed by the product set of forms Q and W classes alpha;
each one is evaluated as the same kind of power at the CM point of Q,
with the vector (0, 1) pushed through alpha * beta_Q.  The certificate
checks |x^gamma / x| < 1 for all non-identity conjugates and reports the
least exponent m whose m-th powers clear the 1/#G threshold; the product
over all conjugates of (X - x^gamma) is then expanded over conjugate
pairs in real fixed point and snapped to an integer polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import fzero, mpc_abs, mpf_cmp, mpf_div, to_fixed, to_float, to_rational

from .errors import EvaluationError, InputError, SnapFailureError
from .exactmath import (
    DEFAULT_GUARD, DEFAULT_PRECISION, conjugate_key, context, to_complex,
)
from .quadforms import Discriminant, QuadForm, theta_of_form
from .reciprocity import FracVector, MatrixModN, act_vector, beta_modN, conjugate_indices
# the invariant is bound here too, where the benchmark's tracer resolves it
from .siegel_eval import siegel_power, siegel_ramachandra_invariant  # noqa: F401

# Added to the observed maximum ratio before both certificate comparisons,
# so the certificate cannot pass (or m come out small) on rounding noise.
RATIO_SAFETY_MARGIN = Fraction(1, 2**64)

# Largest distance of a coefficient from an integer that the snap accepts.
SNAP_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ConjugateRecord:
    """One conjugate: its index (alpha, form), transformed vector, and value.

    The CM point is ``theta_of_form(form)``.  ``value`` is an mpc of
    ``context(precision)``, and ``conjugates`` gives every record of a list
    the same precision; records pickle.
    """

    alpha: MatrixModN
    form: QuadForm
    vector: FracVector
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
    """A snapped monic integer polynomial, coefficients degree-descending.

    The expansion is real, so ``max_imag_residual`` keeps its default 0.0.
    """

    coefficients: tuple[int, ...]
    max_rounding_residual: float
    max_imag_residual: float = 0.0

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _partner(Q: QuadForm, vector: FracVector) -> tuple[tuple[int, int, int], FracVector]:
    """The (form, vector) key of the record whose value is conj(x) at (Q, vector).

    The partner form has the CM point -conj(tau) of Q, and
    g_(r1,r2)(-conj(tau)) = conj(g_(r1,-r2)(tau)).  When Q is its own
    partner, -conj(tau) is tau (b = 0), T tau = tau + 1 (b = a) or
    S tau = -1/tau (a = c), and the vector moves by that matrix; the root
    of unity that g picks up under T or S vanishes in the power, whose
    exponent is a multiple of 12.
    """
    a, b, c = Q.as_tuple()
    v, w, N = vector.v, vector.w, vector.modulus
    if b == 0:
        return (a, 0, c), FracVector(v, -w, N)
    if b == a:
        return (a, a, c), FracVector(v, v - w, N)
    if a == c:
        return (a, b, a), FracVector(w, v, N)
    return (a, -b, c), FracVector(v, -w, N)


def _index(d: Discriminant, N: int) -> list[tuple[MatrixModN, QuadForm, FracVector]]:
    """The conjugate set of d and N: its (alpha, Q, vector) triples in record order."""
    forms, group = conjugate_indices(d, N)
    base = FracVector(0, 1, N)
    starts = [act_vector(base, alpha) for alpha in group]
    triples = []
    for Q in forms:
        beta = beta_modN(Q, N)
        triples += [(alpha, Q, act_vector(start, beta)) for alpha, start in zip(group, starts)]
    return triples


def _partners(triples: list[tuple[MatrixModN, QuadForm, FracVector]]) -> list[int]:
    """For each triple of a whole conjugate set, the position of its ``_partner``."""
    position = {(Q.as_tuple(), vector): i for i, (_, Q, vector) in enumerate(triples)}
    return [position[_partner(Q, vector)] for _, Q, vector in triples]


def conjugates(d: Discriminant, N: int, precision: int = DEFAULT_PRECISION) -> list[ConjugateRecord]:
    """Evaluate every conjugate of the base value, identity record first.

    The records run over forms Q, principal first, and within each over
    the W classes alpha, identity first, as ``_index`` lists them.  Record
    (alpha, Q) has the vector (0, 1) alpha beta_Q in canonical form and
    the value the -12N/gcd(6,N) power of g at the CM point of Q, carried
    at ``precision`` bits (with a fixed DEFAULT_GUARD = 64 extra working
    bits); tau, the CM point rounded to precision + 64 bits, is made at the
    form's first evaluated vector; siegel_eval's "Rounded CM points" bounds
    the error relative to g at the exact CM point.  The principal form has
    beta = 1, so the first record is the base value itself with vector
    (0, 1).

    Complex conjugation saves about half the evaluations.  A record whose
    partner comes earlier and lies on another form takes the exact
    conjugate of the partner's value: a form with b < 0 has its partner
    records on the form (a, -b, c), which sorts after it.  Every other
    record is evaluated, among them all records of the forms that are
    their own partner (b = 0, b = a or a = c).
    """
    precision = context(precision).prec
    triples = _index(d, N)
    partner = _partners(triples)
    records, points = [], {}
    for i, (alpha, Q, vector) in enumerate(triples):
        j = partner[i]
        if j < i and triples[j][1] != Q:
            value = records[j].value.conjugate()
        else:
            tau = points.get(Q)
            if tau is None:  # a form whose every value is mirrored needs no CM point
                tau = points[Q] = to_complex(theta_of_form(Q), precision + DEFAULT_GUARD)
            value = siegel_power(vector.v, vector.w, tau, N, precision=precision, guard=DEFAULT_GUARD)
        records.append(ConjugateRecord(alpha, Q, vector, value))
    return records


def _checked(records: list[ConjugateRecord]) -> int:
    """The records' one precision p, after the checks both consumers share.

    An empty list, one that mixes levels N, discriminants d or precisions,
    or one whose (alpha, form, vector) triples are not those of ``_index``
    at its d and N, each once, is an InputError that names the first record
    outside the set; a zero, NaN or infinite value is an EvaluationError.
    """
    if not records:
        raise InputError("need at least one conjugate record")
    Ns, ds = {r.vector.modulus for r in records}, {r.form.discriminant for r in records}
    if len(Ns) > 1 or len(ds) > 1:
        raise InputError(f"records must share one N and one d, got N {sorted(Ns)}, d {sorted(ds)}")
    precisions = {r.value.context.prec for r in records}
    if len(precisions) > 1:
        raise InputError(f"records must share one precision, got {sorted(precisions)} bits")
    (d,), (N,) = ds, Ns
    position = {triple: i for i, triple in enumerate(_index(Discriminant(d), N))}
    where = []
    for k, r in enumerate(records):
        i = position.get((r.alpha, r.form, r.vector))
        if i is None:
            label = f"W class {r.alpha.entries()}, form {r.form.as_tuple()}, vector {r.vector.as_tuple()}"
            raise InputError(f"record {k} ({label}) is not a conjugate of d = {d}, N = {N}")
        where.append(i)
    if sorted(where) != list(range(len(position))):
        raise InputError(f"got {len(records)} records, not each of the {len(position)} conjugates once")
    # a special mpf (zero, an infinity or NaN) has mantissa 0: at most one part may be, and only 0
    if any([part for part in r.value._mpc_ if not part[1]] not in ([], [fzero]) for r in records):
        raise EvaluationError("a conjugate is zero or NaN, or infinite")
    return precisions.pop()


def _least_power(ratio: Fraction, group_order: int) -> int:
    """Least m >= 1 with ratio^m <= 1/group_order, for a ratio below 1.

    Exact on rationals, so boundary cases like (1/2)^3 = 1/8 are decided
    without rounding.  Ratios so close to 1 that m exceeds 10^4 are decided
    by 128-bit logarithms instead (exact powers would be astronomically
    large there, and one-off minimality has no practical meaning).  A ratio
    at or below 1/group_order gives 1 before any logarithm.
    """
    if ratio >= 1:
        raise InputError(f"ratio must be < 1, got {ratio}")
    bound = Fraction(1, group_order)
    if ratio <= bound:
        return 1
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

    Ratios are moduli relative to the base record, which must come first
    (identity class, principal form, vector (0, 1); else InputError).  The
    records must be the whole conjugate set of ``_index`` at their d and N,
    each (alpha, form, vector) once; any other list is an InputError.  The
    group order #G = h(d) #W/{+-1} is the set's size.  Each modulus is
    rounded to the records' one precision p and each quotient to p + 16
    bits, all to nearest, on mpmath's raw tuples.  A value and its
    conjugate have one ``conjugate_key`` and share one modulus and
    quotient, which see Im z only through its square.  The maximum gets the
    2^-64 safety margin before the < 1 test and before the exponent search.
    """
    p = _checked(records)
    first = records[0]
    # a reduced form with a = 1 is the principal form
    if not (first.alpha.is_identity() and first.form.a == 1 and first.vector.as_tuple() == (0, 1)):
        raise InputError("the first record must be the base: identity, principal form, (0, 1)")
    group_order = len(records)
    base = mpc_abs(first.value._mpc_, p, "n")
    # conj(z) has the modulus of z: one quotient per conjugate_key; finite over
    # finite and non-zero, every quotient is finite, so the largest is exact
    shared, ratios, largest = {}, [], fzero
    for rec in records[1:]:
        key = conjugate_key(rec.value)
        ratio = shared.get(key)
        if ratio is None:
            exact = mpf_div(mpc_abs(rec.value._mpc_, p, "n"), base, p + 16, "n")
            if mpf_cmp(exact, largest) > 0:
                largest = exact
            ratio = shared[key] = to_float(exact, rnd="n")
        ratios.append(ratio)
    margined = Fraction(*to_rational(largest)) + RATIO_SAFETY_MARGIN
    passes = margined < 1
    m = _least_power(margined, group_order) if passes else None
    return CriterionReport(
        passes=passes,
        max_ratio=float(margined),
        m=m,
        group_order=group_order,
        ratios=tuple(ratios),
    )


def minimal_polynomial(records: list[ConjugateRecord]) -> IntPolynomial:
    """Expand prod (X - value) over the records and snap to integers.

    The records must be the whole conjugate set of ``_index`` at their d
    and N, each (alpha, form, vector) once, in any order; any other list is
    an InputError.  The product is real, so it runs over conjugate pairs:
    ``_partners`` names each record's partner, a pair contributes
    X^2 - 2 Re(z) X + |z|^2 at its first record and a real value (its own
    partner) X - Re(z).  The factors are multiplied in ascending order of
    |z| (by binary exponent, ties in record order), so the coefficients
    grow to full size only in the last products.  Each partner must lie
    within 2^(2-p) |z| of conj(z), and a real value's |Im z| within half of
    that, p being the records' one precision: both values carry a relative
    error below 2^-p, so a larger gap is an EvaluationError.

    Coefficients are Python integers scaled by 2^F, F = p + 64.  Every
    integer step truncates by less than one unit 2^-F: each Re z and Im z
    once, each |z|^2 once, and each coefficient once per factor multiplied
    in.  Each coefficient's distance to the nearest integer is recorded;
    if the maximum exceeds SNAP_TOLERANCE (1e-10) the snap is refused,
    since that indicates either insufficient working precision for the
    coefficient sizes at hand or genuinely non-integral coefficients.
    ``max_imag_residual`` keeps its default 0.0.  Callers should pass
    records from a run whose certificate passed.
    """
    p = _checked(records)
    F = p + 64
    factors = []
    partners = _partners([(r.alpha, r.form, r.vector) for r in records])
    for k, (rec, j) in enumerate(zip(records, partners)):
        if j < k:  # the pair's factor came at its first record
            continue
        z = rec.value
        # |partner - conj z|^2 > 2^(4-2p) |z|^2, exactly: the four raw parts as
        # integers aligned to their least exponent (z is finite and non-zero)
        parts = (*z._mpc_, *records[j].value._mpc_)
        low = min(exp for _, man, exp, _ in parts if man)
        a, b, c, d = ((-man if s else man) << (exp - low) if man else 0 for s, man, exp, _ in parts)
        if ((c - a) ** 2 + (d + b) ** 2) << 2 * p > (a * a + b * b) << 4:
            raise EvaluationError(
                f"conjugate pair at form {rec.form.as_tuple()}, vector {rec.vector.as_tuple()} "
                f"disagrees beyond its error bound"
            )
        factors.append((z, j == k))
    factors.sort(key=lambda factor: factor[0].context.mag(factor[0]))
    coeffs = [1 << F]
    for z, real in factors:
        re = to_fixed(z.real._mpf_, F)
        if real:
            coeffs = [c - (re * p >> F) for c, p in zip(coeffs + [0], [0] + coeffs)]
        else:
            im = to_fixed(z.imag._mpf_, F)
            b, c2 = -2 * re, (re * re + im * im) >> F
            coeffs = [
                c + ((b * p1 + c2 * p2) >> F)
                for c, p1, p2 in zip(coeffs + [0, 0], [0] + coeffs + [0], [0, 0] + coeffs)
            ]
    half = 1 << (F - 1)
    snapped = [(c + half) >> F for c in coeffs]
    max_round = Fraction(max(abs(c - (n << F)) for c, n in zip(coeffs, snapped)), 1 << F)
    if max_round > SNAP_TOLERANCE:
        raise SnapFailureError(
            f"coefficients are not within {SNAP_TOLERANCE} of integers "
            f"(rounding residual {float(max_round):.6g}); raise the "
            f"working precision if the residual looks like rounding noise",
            max_rounding_residual=float(max_round),
        )
    return IntPolynomial(coefficients=tuple(snapped), max_rounding_residual=float(max_round))

