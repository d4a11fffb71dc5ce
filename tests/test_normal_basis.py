"""Tests for conjugate enumeration, the certificate, and snapping."""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import siegelcm
from siegelcm import (
    EvaluationError,
    FracVector,
    InputError,
    MatrixModN,
    QuadForm,
    SnapFailureError,
    act_vector,
    beta_modN,
    check_criterion,
    conjugate_indices,
    conjugates,
    context,
    minimal_polynomial,
    power_exponent,
    reduced_forms,
    siegel_power,
    siegel_ramachandra_invariant,
    theta,
    theta_of_form,
    to_complex,
    validate_discriminant,
    w_group,
)
from siegelcm import normal_basis
from siegelcm.normal_basis import _least_power

from helpers import agreement_bits
from oracles import oracle_frobenius_holds, oracle_siegel_g, oracle_split_primes
from test_acceptance import REFERENCE_POLY_20_6
from test_siegel_eval import FROZEN_X1

D20 = validate_discriminant(-20)

# the level-6 conjugate labels for discriminant -20, as +-classes mod 6
EXPECTED_VECTORS_20_6 = [
    (0, 1), (1, 0), (3, 2), (2, 3),  # at the principal CM point
    (3, 2), (1, 5), (3, 1), (5, 4),  # at the other one
]


@pytest.fixture(scope="module")
def records_20_6():
    return conjugates(D20, 6, precision=256)


def test_conjugates_level_six_vectors(records_20_6):
    got = [r.vector for r in records_20_6]
    expected = [FracVector(v, w, 6) for v, w in EXPECTED_VECTORS_20_6]
    assert got == expected


def test_conjugates_points_grouped(records_20_6):
    # records carry the form; the CM point is the form's root theta_Q
    pts = [theta_of_form(r.form) for r in records_20_6]
    pts = [(pt.p, pt.q, pt.d) for pt in pts]
    assert pts[:4] == [(0, 2, -20)] * 4
    assert pts[4:] == [(-2, 4, -20)] * 4


def test_records_run_over_forms_times_group():
    # record k is (alpha, Q) = (group[k % #W], forms[k // #W]), with the
    # vector (0, 1) alpha beta_Q; (-23, 8) has three forms and 16 W classes
    d, N = validate_discriminant(-23), 8
    forms, group = conjugate_indices(d, N)
    records = conjugates(d, N, precision=64)
    assert [(r.form, r.alpha) for r in records] == [(Q, alpha) for Q in forms for alpha in group]
    base = FracVector(0, 1, N)
    for rec in records:
        assert rec.vector == act_vector(base, rec.alpha * beta_modN(rec.form, N))


def test_identity_record_first(records_20_6):
    first = records_20_6[0]
    assert first.alpha.is_identity()
    assert first.form.as_tuple() == (1, 0, 5)
    assert first.vector.as_tuple() == (0, 1)
    ctx = context(300)
    frozen = ctx.mpf(FROZEN_X1)
    assert abs(ctx.mpc(first.value) - frozen) < frozen * ctx.mpf(2) ** -240


def test_identity_record_matches_direct_evaluation(records_20_6):
    tau = to_complex(theta(D20), 256 + 64)
    direct = siegel_power(0, 1, tau, 6, precision=256, guard=64)
    assert records_20_6[0].value == direct  # same code path, bit-identical


def test_conjugates_rerun_deterministic(records_20_6):
    again = conjugates(D20, 6, precision=256)
    assert again == list(records_20_6)


def test_conjugates_single_index_case():
    recs = conjugates(validate_discriminant(-7), 2, precision=256)
    assert len(recs) == 1
    assert recs[0].vector.as_tuple() == (0, 1)
    point = theta_of_form(recs[0].form)
    assert (point.p, point.q, point.d) == (-1, 2, -7)
    # the lone value is exactly -1
    ctx = context(280)
    assert abs(ctx.mpc(recs[0].value) + 1) < ctx.mpf(2) ** -250


def test_mirrored_records_match_the_oracle():
    # the records on forms with b > 0 are the ones conjugates may take from
    # a mirror; each is checked against the oracle's own q-product at its
    # own vector and CM point, at 2p + 64 bits
    p, N, work = 128, 8, 2 * 128 + 64
    records = conjugates(validate_discriminant(-23), N, precision=p)
    chosen = [rec for rec in records if rec.form.b > 0]
    assert len(chosen) == 16
    e = power_exponent(N)
    for rec in chosen:
        v, w = rec.vector.as_tuple()
        tau = context(work).mpc(to_complex(theta_of_form(rec.form), work))
        with mpmath.workprec(work):
            g = oracle_siegel_g(Fraction(v, N), Fraction(w, N), tau, prec=work)
            ref = context(work).mpc(g**e)
        assert agreement_bits(rec.value, ref) >= p, (rec.form, v, w)


@pytest.mark.parametrize("d, N, p", [(-95, 12, 512), (-71, 30, 256)])
def test_mirrored_records_match_direct_evaluation(d, N, p):
    # every record, mirrored or evaluated: values at theta rounded to
    # p + 64 bits against direct evaluation at 2p bits on theta at 2p + 64
    records = conjugates(validate_discriminant(d), N, precision=p)
    for rec in records:
        v, w = rec.vector.as_tuple()
        tau = to_complex(theta_of_form(rec.form), 2 * p + 64)
        direct = siegel_power(v, w, tau, N, precision=2 * p)
        assert agreement_bits(rec.value, direct) >= p, (rec.form, v, w)


@pytest.mark.parametrize("d, N, p", [(-20, 6, 256), (-71, 30, 256), (-1031, 7, 256), (-311, 12, 1408)])
def test_rounding_the_cm_point_stays_within_its_bound(d, N, p):
    # conjugates rounds theta to p + 64 bits; at the record with the least
    # Im tau and at the base record, x there agrees with x at theta rounded
    # to 2p + 64 bits (both to 2p bits) to p + 48 bits, and to the
    # 3.1 |e| |tau| 2^-(p+64) of siegel_eval's "Rounded CM points"
    records = conjugates(validate_discriminant(d), N, precision=p)
    least = max(records, key=lambda rec: rec.form.a)  # Im tau = sqrt|d| / 2a
    for rec in (least, records[0]):
        point = theta_of_form(rec.form)
        coarse, fine = (
            siegel_power(*rec.vector.as_tuple(), to_complex(point, bits), N, precision=2 * p)
            for bits in (p + 64, 2 * p + 64)
        )
        bits = agreement_bits(coarse, fine)
        bound = p + 64 - math.log2(3.1 * abs(power_exponent(N)) * abs(complex(to_complex(point, 64))))
        assert bits >= max(p + 48, bound - 1), (rec.form, bits - p)


@pytest.mark.parametrize(
    "d, N, p, calls",
    [
        (-1031, 7, 128, 432),  # 408 of 840 records conjugated
        (-95, 12, 512, 40),
        (-23, 8, 128, 16),
        (-20, 6, 256, 8),  # both forms mirror into themselves: all evaluated
        (-15, 7, 128, 48),  # (2, 1, 2) has a = c: its partners stay on it
        (-55, 6, 128, 12),  # (4, 3, 4) likewise, beside the mirror pair (2, +-1, 7)
    ],
)
def test_conjugates_evaluates_one_form_of_each_mirror_pair(monkeypatch, d, N, p, calls):
    count = 0

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return siegel_power(*args, **kwargs)

    monkeypatch.setattr(normal_basis, "siegel_power", counting)
    conjugates(validate_discriminant(d), N, precision=p)
    assert count == calls


@pytest.mark.parametrize(
    "d, N, forms, points",
    [
        (-1031, 7, 35, 18),  # 17 forms with b < 0 mirror every record
        (-311, 12, 19, 10),
        (-71, 30, 7, 4),
    ],
)
def test_conjugates_rounds_a_cm_point_only_for_an_evaluated_form(monkeypatch, d, N, forms, points):
    made = []
    monkeypatch.setattr(normal_basis, "to_complex", lambda *args: made.append(args) or to_complex(*args))
    records = conjugates(validate_discriminant(d), N, precision=128)
    assert len({rec.form for rec in records}) == forms
    assert len(made) == points


def test_check_criterion_level_six_run(records_20_6):
    report = check_criterion(list(records_20_6))
    assert report.passes
    assert report.group_order == 8
    assert len(report.ratios) == 7
    assert report.max_ratio < 1e-4
    assert report.m == 1
    assert max(report.ratios) <= report.max_ratio


@pytest.mark.parametrize("d, N, p", [(-1031, 7, 256), (-311, 12, 1408), (-71, 30, 256), (-95, 12, 256)])
def test_check_criterion_ratios_are_mpmath_quotients(d, N, p):
    # each ratio is |z| / |base| divided at p + 16 bits, each modulus taken
    # at its value's own precision, and max_ratio and m follow from them;
    # one quotient serves a value and its conjugate, so mirrored records
    # and records on self-partnered forms are both among the cases
    recs = conjugates(validate_discriminant(d), N, precision=p)
    report = check_criterion(recs)
    ctx = context(p + 16)
    exact = [ctx.fdiv(abs(r.value), abs(recs[0].value)) for r in recs[1:]]
    assert report.ratios == tuple(float(r) for r in exact)
    margined = Fraction(*mpmath.libmp.to_rational(max(exact)._mpf_)) + normal_basis.RATIO_SAFETY_MARGIN
    assert report.max_ratio == float(margined)
    # m, the least m >= 1 with margined^m <= 1/#G, by an exact walk
    m = 1
    while margined**m * len(recs) > 1:
        m += 1
    assert report.m == m


@pytest.mark.parametrize("d, N", [(-71, 30), (-1031, 7)])
def test_check_criterion_does_not_depend_on_the_order_after_the_base(d, N):
    # the label set is a set: after the base, any order of the records gives
    # the same verdict, m, #G and maximum, and the ratios follow the records
    recs = conjugates(validate_discriminant(d), N, precision=64)
    shuffled = recs[:1] + random.Random(d * N).sample(recs[1:], len(recs) - 1)
    assert shuffled != recs
    ordered, reordered = check_criterion(recs), check_criterion(shuffled)
    assert (reordered.passes, reordered.m, reordered.group_order, reordered.max_ratio) == (
        ordered.passes, ordered.m, ordered.group_order, ordered.max_ratio
    )
    assert sorted(reordered.ratios) == sorted(ordered.ratios)


def test_check_criterion_single_record():
    recs = conjugates(validate_discriminant(-7), 2, precision=128)
    report = check_criterion(recs)
    assert report.passes
    assert report.group_order == 1
    assert report.ratios == ()
    assert report.m == 1
    assert report.max_ratio == 2.0**-64  # margin only


def test_check_criterion_degenerate_value(records_20_6):
    zero = context(256).mpc(0)
    broken = [dataclasses.replace(records_20_6[0], value=zero)] + list(records_20_6[1:])
    with pytest.raises(EvaluationError, match="zero or NaN"):
        check_criterion(broken)


def test_check_criterion_rejects_nan_and_infinite_base(records_20_6):
    # a NaN ratio would be skipped by max(), so NaN and infinite values
    # (inf / inf = NaN) must be rejected before the ratios are compared
    nan, inf = context(256).mpc(mpmath.nan), context(256).mpc(mpmath.inf)
    for k, value in ((5, nan), (0, nan), (0, inf), (5, inf)):
        recs = list(records_20_6)
        recs[k] = dataclasses.replace(recs[k], value=value)
        with pytest.raises(EvaluationError, match="zero or NaN"):
            check_criterion(recs)


def test_records_and_report_pickle():
    recs = conjugates(D20, 6, precision=320)
    report = check_criterion(recs)
    assert pickle.loads(pickle.dumps(recs)) == recs
    assert pickle.loads(pickle.dumps(report)) == report
    # a fresh interpreter has none of the contexts yet; it must rebuild them
    script = (
        "import pickle, sys\n"
        "recs = pickle.load(sys.stdin.buffer)\n"
        "assert all(r.value.context.prec == 320 for r in recs)\n"
        "sys.stdout.buffer.write(pickle.dumps(recs))\n"
    )
    src = os.path.dirname(os.path.dirname(siegelcm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(recs), env=env,
        capture_output=True, check=True,
    )
    back = pickle.loads(done.stdout)
    assert back == recs
    # the index compares records by value: the unpickled list certifies alike
    assert check_criterion(back) == report
    assert back[0].value.context.prec == 320


def test_check_criterion_needs_records():
    with pytest.raises(InputError):
        check_criterion([])


def test_record_lists_must_be_the_conjugate_set():
    # without the base first, or with a record twice, the ratios or the
    # group order (and so m) would not be those of the conjugate set
    recs = conjugates(D20, 6, precision=128)
    with pytest.raises(InputError, match="first record must be the base"):
        check_criterion(recs[::-1])
    # the base form's four records alone: #G is h(-20) #W/{+-1} = 2 * 4 = 8, not 4
    for partial, count in ((recs[1:], 7), (recs[:4], 4), (recs + [recs[3]], 9)):
        for consumer in (check_criterion, minimal_polynomial):
            with pytest.raises(InputError, match=rf"got {count} records, not each of the 8 conjugates once"):
                consumer(partial)
    # one non-base value at 256 bits: the list would carry two radii 2^-p |x|
    wider = conjugates(D20, 6, precision=256)[5].value
    mixed = recs[:5] + [dataclasses.replace(recs[5], value=wider)] + recs[6:]
    for consumer in (check_criterion, minimal_polynomial):
        with pytest.raises(InputError, match=r"one precision, got \[128, 256\] bits"):
            consumer(mixed)
    # one level and one field: a record of (-23, 6) or of (-20, 3) in place
    # of the last one keeps the base and the count, so only that rule stops it
    foreign = conjugates(validate_discriminant(-23), 6, precision=128)[3]
    lower = conjugates(D20, 3, precision=128)[1]
    for stranger in (foreign, lower):
        with pytest.raises(InputError, match="one N and one d"):
            check_criterion(recs[:-1] + [stranger])
    # an extra level-3 record is a rejected list, not a failed snap (exit 3)
    with pytest.raises(InputError, match=r"got N \[3, 6\], d \[-20\]"):
        minimal_polynomial(recs + [lower])
    # each record's (W class, form, vector) triple must be in the set: the
    # last record moved onto the principal form, whose vectors do not
    # include its (5, 4); record 5 relabelled with record 4's alpha; record
    # 5 given the invertible (1, 1; 0, 1), which is no W class; a ninth
    # record on a label already present, with a vector no record has;
    # record 5's vector set to (0, 1); and records 1 and 2, both on
    # (1, 0, 5), with their vectors swapped. The last two keep every
    # (W class, form) label once and distinct (form, vector) pairs, and the
    # swapped list is even closed under complex conjugation
    moved = recs[:-1] + [dataclasses.replace(recs[-1], form=recs[0].form)]
    twin = recs[:5] + [dataclasses.replace(recs[5], alpha=recs[4].alpha)] + recs[6:]
    stray = recs[:5] + [dataclasses.replace(recs[5], alpha=MatrixModN(1, 1, 0, 1, 6))] + recs[6:]
    assert MatrixModN(1, 1, 0, 1, 6) not in w_group(D20, 6)
    extra = recs + [dataclasses.replace(recs[5], alpha=recs[4].alpha, vector=FracVector(1, 1, 6))]
    forged = recs[:5] + [dataclasses.replace(recs[5], vector=FracVector(0, 1, 6))] + recs[6:]
    assert recs[1].form == recs[2].form == QuadForm(1, 0, 5)
    swapped = recs[:1] + [dataclasses.replace(recs[1], vector=recs[2].vector),
                          dataclasses.replace(recs[2], vector=recs[1].vector)] + recs[3:]
    for broken, k in ((moved, 7), (twin, 5), (stray, 5), (extra, 8), (forged, 5), (swapped, 1)):
        for consumer in (check_criterion, minimal_polynomial):
            # a cold index: the consumer builds it from d and N alone
            normal_basis._index.cache_clear()
            with pytest.raises(InputError, match=rf"record {k} \(W class .*\) is not a conjugate of d = -20, N = 6"):
                consumer(broken)
    report = check_criterion(recs)
    assert (report.passes, report.group_order, report.m) == (True, 8, 1)
    assert minimal_polynomial(recs).coefficients == tuple(REFERENCE_POLY_20_6)


def test_the_memoized_index_changes_no_answer(records_20_6):
    recs = list(records_20_6)
    # with the index of (-20, 6) warm, a float, a bool or an unhashable
    # level is still no level, and a bare list is still no field
    conjugates(D20, 6, precision=64)
    for level in (6.0, True, [6]):
        with pytest.raises(InputError, match="level must be an integer >= 2"):
            conjugates(D20, level)
    with pytest.raises(InputError, match="validate_discriminant"):
        conjugates([-20], 6)
    # both consumers give one answer from a cold and from a warm index
    normal_basis._index.cache_clear()
    cold = (check_criterion(recs), minimal_polynomial(recs))
    warm = (check_criterion(recs), minimal_polynomial(recs))
    assert cold == warm
    assert cold[1].coefficients == tuple(REFERENCE_POLY_20_6)


def test_least_certifying_power_exact_boundaries():
    # floats as the exact Fractions they are, as the certificate passes them
    F = Fraction
    assert _least_power(F(0.5), 8) == 3  # (1/2)^3 = 1/8 exactly
    assert _least_power(F(0.5 + 1e-12), 8) == 4  # just above the boundary
    assert _least_power(F(0.25), 8) == 2
    assert _least_power(F(1e-5), 8) == 1
    assert _least_power(F(0.0), 8) == 1
    assert _least_power(F(0.5), 1) == 1
    assert _least_power(F(1, 8), 8) == 1  # at 1/#G exactly
    assert _least_power(F(1, 8) + F(1, 2**200), 8) == 2
    assert _least_power(F(1, 2), 8) == 3
    # the 128-bit estimate is 8 here, so the exact walk steps down
    assert _least_power(F(1, 8), 2**21) == 7  # (1/8)^7 = 2^-21
    # the estimate is 130 here, so the exact walk steps up
    assert _least_power(F(1, 2), 2**130 + 1) == 131
    with pytest.raises(InputError):
        _least_power(F(1.0), 8)


def test_least_certifying_power_near_one():
    # within float epsilon of 1: still finite, decided by logarithms
    m = _least_power(Fraction(2**100 - 1, 2**100), 8)
    assert m > 10**4
    # sanity: m * log(ratio) <= log(1/8) up to the estimate's precision
    assert m >= 2**100 * 2  # log(8) / -log(1 - 2^-100) ~ 2.08 * 2^100
    # within 2^-128 of 1 the rounded ratio's log is 0; m must stay finite and right
    ctx = context(512)
    expected = ctx.log(8) / -ctx.log1p(-ctx.mpf(2) ** -200)
    m = _least_power(1 - Fraction(1, 2**200), 8)
    assert abs(m - expected) <= expected * ctx.mpf(2) ** -120


def test_minimal_polynomial_level_six_run(records_20_6):
    poly = minimal_polynomial(list(records_20_6))
    assert poly.coefficients == tuple(REFERENCE_POLY_20_6)
    assert poly.degree == 8
    assert poly.max_rounding_residual < 1e-10
    assert poly.max_imag_residual == 0.0


def _key(rec):
    return rec.form.as_tuple(), rec.vector


# (-20, 6) has forms with b = 0 and b = a, (-23, 8) adds two forms
# (a, -b, c), (a, b, c), and (-15, 7) has one with a = c
@pytest.mark.parametrize("d, N", [(-20, 6), (-23, 8), (-15, 7)])
def test_partner_map_closes_every_record_set(d, N):
    p = 128
    records = conjugates(validate_discriminant(d), N, precision=p)
    by_key = {_key(rec): rec for rec in records}
    assert len(by_key) == len(records)
    for rec in records:
        partner = by_key[normal_basis._partner(rec.form, rec.vector)]
        assert normal_basis._partner(partner.form, partner.vector) == _key(rec)
        bits = agreement_bits(partner.value, rec.value.conjugate())
        assert bits >= p - 1, (_key(rec), bits)
    # the index's partner positions: an involution, each at its _partner key
    triples, partner = normal_basis._index(validate_discriminant(d), N)
    assert triples == tuple((rec.alpha, rec.form, rec.vector) for rec in records)
    for i, j in enumerate(partner):
        assert partner[j] == i
        assert _key(records[j]) == normal_basis._partner(records[i].form, records[i].vector)


@pytest.mark.parametrize("d, N", [(-95, 12), (-23, 8)])
def test_minimal_polynomial_matches_complex_expansion(d, N):
    # prod (X - z) over every record, one root at a time in complex
    # arithmetic at twice the records' precision, rounded part by part
    p = 512
    records = conjugates(validate_discriminant(d), N, precision=p)
    ctx = context(2 * p)
    coeffs = [ctx.mpc(1)]
    for rec in records:
        z = ctx.mpc(rec.value)
        coeffs = [c - z * q for c, q in zip(coeffs + [0], [0] + coeffs)]
    assert all(abs(c.imag) < 1e-10 for c in coeffs)
    expected = tuple(int(ctx.nint(c.real)) for c in coeffs)
    assert minimal_polynomial(records).coefficients == expected


@pytest.mark.parametrize(
    "d, N, p", [(-11, 5, 256), (-19, 5, 256), (-19, 6, 256), (-20, 6, 256), (-24, 6, 256), (-95, 12, 512)]
)
def test_snapped_polynomials_split_as_the_frobenius_orders(d, N, p):
    # mod a prime t + s theta of K, the roots of the snapped polynomial lie
    # in F_(p^k) for k the order of t + s theta in (O_K/N)^*/{+-1}, and not
    # all in a smaller field; adding 1 to the X^(n/2) coefficient breaks
    # that at each prime (n >= 8 and k > 1: at n <= 4 and k <= 2 a mutant
    # can pass one prime by chance)
    coefficients = list(minimal_polynomial(conjugates(validate_discriminant(d), N, precision=p)).coefficients)
    n = len(coefficients) - 1
    mutant = coefficients.copy()
    mutant[n // 2] += 1
    primes = oracle_split_primes(d, N, coefficients, 3)
    assert n >= 8 and len(primes) == 3 and all(k > 1 for _, k in primes)
    for prime, k in primes:
        assert oracle_frobenius_holds(coefficients, prime, k), (prime, k)
        assert not oracle_frobenius_holds(mutant, prime, k), (prime, k)


@pytest.mark.parametrize("d, N, p", [(-95, 12, 512), (-19, 6, 256)])
def test_minimal_polynomial_does_not_depend_on_the_record_order(d, N, p):
    # "in any order": shuffled records give the same coefficients and the
    # same rounding residual
    records = conjugates(validate_discriminant(d), N, precision=p)
    shuffled = random.Random(d * N).sample(records, len(records))
    assert shuffled != records
    assert minimal_polynomial(shuffled) == minimal_polynomial(records)


def test_minimal_polynomial_needs_every_partner(records_20_6):
    records = list(records_20_6)
    dropped = records.pop(5)
    assert normal_basis._partner(dropped.form, dropped.vector) != _key(dropped)
    with pytest.raises(InputError, match="got 7 records, not each of the 8 conjugates once"):
        minimal_polynomial(records)
    with pytest.raises(InputError, match="got 9 records, not each of the 8 conjugates once"):
        minimal_polynomial(records + [dropped, dropped])


@pytest.mark.parametrize("k", [0, 5])  # a real value, and one of a pair
def test_minimal_polynomial_rejects_a_partner_off_its_bound(records_20_6, k):
    # Im z moves by 2^(s-p) |z|: a pair's bound on |partner - conj z| is
    # 2^(2-p) |z|, a real value's on |Im z| half of that, so half the bound
    # passes and twice it or more fails
    p = 256
    ctx = context(p)
    rec = records_20_6[k]
    z = rec.value
    edge = 1 if normal_basis._partner(rec.form, rec.vector) == _key(rec) else 2

    def shifted(s):
        records = list(records_20_6)
        shift = abs(z) * ctx.ldexp(1, s - p) * ctx.mpc(0, 1)
        records[k] = dataclasses.replace(records[k], value=ctx.mpc(z + shift))
        return records

    assert minimal_polynomial(shifted(edge - 1)).coefficients == tuple(REFERENCE_POLY_20_6)
    for s in (edge + 1, 8):
        with pytest.raises(EvaluationError, match="error bound"):
            minimal_polynomial(shifted(s))


def test_minimal_polynomial_precision_independent():
    lo = minimal_polynomial(conjugates(D20, 6, precision=128))
    hi = minimal_polynomial(conjugates(D20, 6, precision=256))
    assert lo.coefficients == hi.coefficients == tuple(REFERENCE_POLY_20_6)


def test_minimal_polynomial_degree_one():
    recs = conjugates(validate_discriminant(-7), 2, precision=256)
    poly = minimal_polynomial(recs)
    assert poly.coefficients == (1, 1)  # X + 1


def test_minimal_polynomial_snap_failure_on_genuine_nonintegrality():
    # level 2 over discriminant -8: coefficients are rational with a
    # 2-power denominator, far outside any rounding tolerance
    recs = conjugates(validate_discriminant(-8), 2, precision=256)
    with pytest.raises(SnapFailureError) as exc:
        minimal_polynomial(recs)
    assert 0.2 <= exc.value.max_rounding_residual <= 0.3


def test_minimal_polynomial_large_coefficients_need_precision():
    # level 5 over discriminant -24 has integer coefficients near 2e71;
    # 256-bit values cannot resolve them to 1e-10, 384-bit values can
    d24 = validate_discriminant(-24)
    with pytest.raises(SnapFailureError) as exc:
        minimal_polynomial(conjugates(d24, 5, precision=256))
    assert exc.value.max_rounding_residual < 1e-2  # rounding-level, not genuine
    poly = minimal_polynomial(conjugates(d24, 5, precision=384))
    assert poly.degree == 16
    assert abs(poly.coefficients[-1]) == 1
    assert max(abs(c) for c in poly.coefficients) > 10**70
    assert poly.max_rounding_residual < 1e-10


def test_minimal_polynomial_snap_failure_degree_one():
    # (-7, 2) has one conjugate: its whole set with the value 0.5
    (record,) = conjugates(validate_discriminant(-7), 2, precision=256)
    fake = [dataclasses.replace(record, value=context(256).mpc(mpmath.mpf("0.5")))]
    with pytest.raises(SnapFailureError):
        minimal_polynomial(fake)
    with pytest.raises(InputError):
        minimal_polynomial([])


def test_minimal_polynomial_rejects_nonfinite_values(records_20_6):
    for value in (context(256).mpc(mpmath.nan), context(256).mpc(mpmath.inf)):
        recs = list(records_20_6)
        recs[3] = dataclasses.replace(recs[3], value=value)
        with pytest.raises(EvaluationError, match="zero or NaN"):
            minimal_polynomial(recs)


def test_polynomial_degree_equals_group_order():
    for d_int, N in [(-20, 6), (-7, 2), (-20, 2), (-15, 3)]:
        d = validate_discriminant(d_int)
        recs = conjugates(d, N, precision=128)
        assert len(recs) == len(w_group(d, N)) * len(reduced_forms(d))


def test_invariant_identity_level_six(records_20_6):
    # with gcd(6, N) = 6 the 12N-th power is the -6th power of the base value
    inv = siegel_ramachandra_invariant(D20, 6, precision=256)
    x1 = records_20_6[0].value
    assert agreement_bits(inv, x1 ** -6) >= 200


def test_invariant_identity_coprime_level():
    # with gcd(6, 5) = 1 the 12N-th power is the -1st power of the base value
    inv = siegel_ramachandra_invariant(D20, 5, precision=256)
    x1 = conjugates(D20, 5, precision=256)[0].value
    assert agreement_bits(inv, x1 ** -1) >= 200


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 30])
@pytest.mark.parametrize("d", [-3, -4, -7, -20])
def test_invariant_matches_the_oracle_power(d, N):
    # the invariant is taken from x, so the identities above compare the
    # library with itself; this one raises the oracle's own q-product to the
    # 12N at 512 bits, on the two fields with extra units too
    inv = siegel_ramachandra_invariant(validate_discriminant(d), N, precision=256)
    ctx = context(512)
    tau = ctx.mpc(to_complex(theta(validate_discriminant(d)), 512))
    with mpmath.workprec(512):
        ref = ctx.mpc(oracle_siegel_g(Fraction(0), Fraction(1, N), tau) ** (12 * N))
    assert agreement_bits(inv, ref) >= 240


def test_invariant_frozen_value():
    # frozen by the brute-force oracle: this invariant is exactly 1
    inv = siegel_ramachandra_invariant(validate_discriminant(-7), 2, precision=256)
    ctx = context(280)
    assert abs(ctx.mpc(inv) - 1) < ctx.mpf(2) ** -200
