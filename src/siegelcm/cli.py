"""Command-line front end: argument parsing, reports, exit codes.

One parser takes the subcommand and the flags ``--disc``, ``-N/--level``
and ``--precision``; ``build_parser`` builds it once per process, and
``main`` hands each parsed argv to ``run``.  The numeric policy is fixed in
the library: 64 guard bits during evaluation and a snap tolerance of 1e-10.

Exit codes: 0 success, 2 rejected input (``InputError``, or argparse's
``SystemExit(2)``), 3 evaluation failure (``EvaluationError``); ``run``'s
one ``try`` maps both families, and ``errors`` lists what raises each.
The report goes to stdout as one line of JSON from ``json.dumps`` without
indent (CPython's C encoder); it repeats no field and prints no constant.
High-precision values are rendered as decimal strings holding only
certified digits (``format_complex``), at any length (``_digits``).
Output for a fixed configuration is byte-identical across runs; the
elapsed time, which is not, goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from decimal import Decimal
from math import floor, log2, log10

from mpmath.libmp import ften, mpf_div, mpf_mul, mpf_pow_int

from .errors import EvaluationError, InputError
# context is imported for its cache statistics, which the benchmark reads
from .exactmath import (  # noqa: F401
    DEFAULT_PRECISION,
    conjugate_key,
    context,
    require_level,
)
from .normal_basis import (
    ConjugateRecord,
    check_criterion,
    conjugates,
    minimal_polynomial,
)
from .quadforms import reduced_forms, validate_discriminant
from .siegel_eval import siegel_ramachandra_invariant

SCHEMA_VERSION = 6
SUBCOMMANDS = ("forms", "conjugates", "normal-basis", "minpoly", "invariant")
MIN_PRECISION = 64


def _digits(n: int) -> str:
    """str(n) past CPython's 4300-digit limit on it, which is left unchanged."""
    return str(Decimal(n))


def _rounded(man: int, exp: int, bc: int, place: int) -> int:
    """man 2^exp / 10^place rounded to an integer, halves up, for man >= 0.

    Exact integers of up to |exp| + |place| log2(10) bits decide, unless
    those are above 32 times bc + 64 bits, where they cost more than two
    bounds on the quotient at 64 bits above the larger of bc and its bit
    length.  mpf_pow_int, mpf_mul and mpf_div rounded down ('f') and up
    ('c') keep the bounds rigorous; when both round to one integer, that is
    the result, and when they round apart (a tie, or a quotient within
    about 2^-64 of a half-integer), the exact integers decide.  So a huge |exp| or
    |place| costs time in the digits printed, not in its own size.
    """
    if abs(exp) + 4 * abs(place) > 32 * (bc + 64):
        bits = max(bc, bc + exp - floor(place * log2(10))) + 64
        part = (0, man, exp, bc)
        lo, hi = (mpf_pow_int(ften, abs(place), bits, rnd) for rnd in "fc")  # 10^|place|
        if place < 0:
            bounds = mpf_mul(part, lo, bits, "f"), mpf_mul(part, hi, bits, "c")
        else:
            bounds = mpf_div(part, hi, bits, "f"), mpf_div(part, lo, bits, "c")
        low, high = (_half_up(bound) for bound in bounds)
        if low == high:
            return low
    num, den = man << max(exp, 0), 1 << max(-exp, 0)
    if place < 0:
        num *= 10**-place
    else:
        den *= 10**place
    return (2 * num + den) // (2 * den)


def _half_up(x) -> int:
    """floor(x + 1/2) for a raw mpf x >= 0; 0 below 1/2 without a shift."""
    _, man, exp, bc = x
    if exp >= 0:
        return man << exp
    if bc + exp < 0:
        return 0
    return (man + (1 << (-exp - 1))) >> -exp


def _decimal(part: tuple, place: int) -> str:
    """The finite raw mpf ``part`` rounded to a multiple of 10^place.

    Fixed-point notation when the leading digit's exponent lies in
    (-5, digit count), else d.ddde+X; trailing zeros are stripped, and a
    part that rounds to zero is "0.0", without a sign.
    """
    sign, man, exp, bc = part
    digits = _digits(_rounded(man, exp, bc, place))
    if digits == "0":
        return "0.0"
    lead = place + len(digits) - 1
    if -5 < lead < len(digits):
        digits = "0" * -lead + digits if lead < 0 else digits
        cut, suffix = max(lead, 0) + 1, ""
    else:
        cut, suffix = 1, f"e{lead:+d}"
    text = f"{digits[:cut]}.{digits[cut:].rstrip('0') or '0'}{suffix}"
    return "-" + text if sign else text


def _parts(z) -> tuple[str, str]:
    """The certified digits of Re z and of |Im z|, which z and conj(z) share.

    z carries a relative error below 2^-p, p = z.context.prec, so each
    part is rounded at the decimal place 10^floor(log10(|z| 2^-p)), the
    largest power of ten at or below that bound, with |z| replaced by
    2^(top-1) <= max(|re|, |im|) <= |z| from the parts' binary exponents.
    A part much smaller than |z| keeps only its certified leading digits.
    """
    ctx = z.context
    if not ctx.isfinite(z):
        raise EvaluationError(f"cannot print the non-finite value {z}")
    top = max(ctx.mag(z.real), ctx.mag(z.imag))
    place = floor((top - 1 - ctx.prec) * log10(2)) if z else 0
    re, (_, *im) = z._mpc_
    return _decimal(re, place), _decimal((0, *im), place)


def _joined(parts: tuple[str, str], negative) -> str:
    """'re+imi', or 're-imi' when Im z is negative and does not print as 0.0."""
    re, im = parts
    return f"{re}{'-' if negative and im != '0.0' else '+'}{im}i"


def format_complex(z) -> str:
    """'re+imi' or 're-imi' with only the digits that z's precision certifies.

    The two parts are ``_parts(z)``; one that rounds to zero prints as 0.0
    (so +0.0i), hiding the sign of its noise.
    """
    return _joined(_parts(z), z._mpc_[1][0])


def _conjugate_rows(records: list[ConjugateRecord]) -> list[dict]:
    # _parts once per conjugate_key, joined with each record's own sign of Im
    parts = {}
    rows = []
    for rec in records:
        alpha, value = rec.alpha, rec.value
        key = conjugate_key(value)
        if key not in parts:
            parts[key] = _parts(value)
        rows.append(
            {
                "alpha": [[alpha.m11, alpha.m12], [alpha.m21, alpha.m22]],
                "form": list(rec.form.as_tuple()),
                "vector": list(rec.vector.as_tuple()),
                "value": _joined(parts[key], value._mpc_[1][0]),
            }
        )
    return rows


def _compute(config: argparse.Namespace) -> dict:
    # the CLI's own two rules, then the library's
    if config.precision < MIN_PRECISION:
        raise InputError(f"precision must be >= {MIN_PRECISION} bits")
    if config.level is not None or config.subcommand != "forms":
        require_level(config.level)
    d = validate_discriminant(config.disc)
    if config.subcommand == "forms":
        forms = reduced_forms(d)
        return {
            "class_number": len(forms),
            "forms": [list(q.as_tuple()) for q in forms],
        }

    if config.subcommand == "invariant":
        value = siegel_ramachandra_invariant(d, config.level, precision=config.precision)
        return {"value": format_complex(value)}

    records = conjugates(d, config.level, precision=config.precision)
    if config.subcommand == "conjugates":
        return {"count": len(records), "conjugates": _conjugate_rows(records)}

    report = check_criterion(records)
    if config.subcommand == "normal-basis":
        return {
            "count": len(records),
            "conjugates": _conjugate_rows(records),
            "criterion": vars(report),
        }

    # minpoly
    if not report.passes:
        raise EvaluationError("certificate failed; no polynomial is produced")
    poly = minimal_polynomial(records)
    return {
        "criterion": vars(report),
        "degree": poly.degree,
        "coefficients": [_digits(c) for c in poly.coefficients],
        "max_rounding_residual": poly.max_rounding_residual,
    }


def render_json(config: argparse.Namespace, result: dict) -> str:
    """The report: schema, config and result as one line of compact JSON."""
    return json.dumps({"schema": SCHEMA_VERSION, "config": vars(config), "result": result})


def run(config: argparse.Namespace) -> int:
    """Execute one parsed argv; report to stdout, diagnostics to stderr."""
    started = time.perf_counter()
    try:
        result = _compute(config)
    except (InputError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(render_json(config, result))
    print(f"elapsed_ms={elapsed_ms:.3f}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="siegelcm",
        description=(
            "Galois conjugates of singular values of Siegel functions over "
            "imaginary quadratic fields: class-group data, normal-basis "
            "certificates, and integer minimal polynomials."
        ),
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--disc", type=int, required=True, help="field discriminant (< 0)")
    parser.add_argument("-N", "--level", type=int, default=None,
                        help="level N >= 2 of the ray class field (not used by forms)")
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                        help="working precision in bits (default 256)")
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
