"""Command-line front end: argument parsing, reports, exit codes.

One parser takes the subcommand and the flags ``--disc``, ``-N/--level``
and ``--precision``; ``build_parser`` builds it once per process and
every ``main`` call reuses it.  The numeric policy is fixed in the
library: 64 guard bits during evaluation and a snap tolerance of 1e-10.

Exit codes: 0 success, 2 rejected input (``InputError``), 3 evaluation
failure (``EvaluationError``); ``errors`` lists what raises each.
The report goes to stdout as one line of JSON, written by ``json.dumps``
without indent (CPython's C encoder).
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
from dataclasses import dataclass
from decimal import Decimal
from math import floor, log10

from .errors import EvaluationError, InputError
# context is imported for its cache statistics, which the benchmark reads
from .exactmath import DEFAULT_PRECISION, context, require_integers, require_level  # noqa: F401
from .normal_basis import (
    ConjugateRecord,
    check_criterion,
    conjugates,
    minimal_polynomial,
    siegel_ramachandra_invariant,
)
from .quadforms import reduced_forms, theta_of_form, validate_discriminant

SCHEMA_VERSION = 5
SUBCOMMANDS = ("forms", "conjugates", "normal-basis", "minpoly", "invariant")
MIN_PRECISION = 64


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    disc: int
    level: int | None
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise InputError(f"unknown subcommand {self.subcommand!r}")
        require_integers(self, "disc", "precision")
        if self.precision < MIN_PRECISION:
            raise InputError(f"precision must be >= {MIN_PRECISION} bits")
        if self.level is not None:
            require_level(self.level)
            require_integers(self, "level")
        elif self.subcommand != "forms":
            raise InputError("level must be an integer >= 2")


def _digits(n: int) -> str:
    """str(n) past CPython's 4300-digit limit on it, which is left unchanged."""
    return str(Decimal(n))


def _decimal(part, place: int) -> str:
    """The finite mpf ``part`` rounded to a multiple of 10^place.

    Fixed-point notation when the leading digit's exponent lies in
    (-5, digit count), else d.ddde+X; trailing zeros are stripped, and a
    part that rounds to zero is "0.0", without a sign.
    """
    sign, man, exp, _ = part._mpf_
    num, den = man << max(exp, 0), 1 << max(-exp, 0)
    if place < 0:
        num *= 10**-place
    else:
        den *= 10**place
    digits = _digits((2 * num + den) // (2 * den))
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


def format_complex(z) -> str:
    """'re+imi' or 're-imi' with only the digits that z's precision certifies.

    z carries a relative error below 2^-p, p = z.context.prec, so each
    part is rounded at the decimal place 10^floor(log10(|z| 2^-p)), the
    largest power of ten at or below that bound, with |z| replaced by
    2^(top-1) <= max(|re|, |im|) <= |z| from the parts' binary exponents.
    A part much smaller than |z| keeps only its certified leading digits,
    and one that rounds to zero prints as 0.0 (so +0.0i), hiding the sign
    of its noise.
    """
    ctx = z.context
    if not ctx.isfinite(z):
        raise EvaluationError(f"cannot print the non-finite value {z}")
    top = max(ctx.mag(z.real), ctx.mag(z.imag))
    place = floor((top - 1 - ctx.prec) * log10(2)) if z else 0
    im = _decimal(z.imag, place)
    return f"{_decimal(z.real, place)}{'' if im[0] == '-' else '+'}{im}i"


def _conjugate_rows(records: list[ConjugateRecord]) -> list[dict]:
    points = {form: theta_of_form(form) for form in {rec.form for rec in records}}
    rows = []
    for rec in records:
        alpha, point = rec.alpha, points[rec.form]
        rows.append(
            {
                "alpha": [[alpha.m11, alpha.m12], [alpha.m21, alpha.m22]],
                "form": list(rec.form.as_tuple()),
                "vector": list(rec.vector.as_tuple()),
                "point": {"p": point.p, "q": point.q, "d": point.d},
                "value": format_complex(rec.value),
            }
        )
    return rows


def _compute(config: RunConfig) -> dict:
    d = validate_discriminant(config.disc)
    if config.subcommand == "forms":
        forms = reduced_forms(d)
        return {
            "discriminant": d.d,
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
        "max_imag_residual": poly.max_imag_residual,
    }


def render_json(config: RunConfig, result: dict) -> str:
    """The report: schema, config and result as one line of compact JSON."""
    return json.dumps({"schema": SCHEMA_VERSION, "config": vars(config), "result": result})


def run(config: RunConfig, stdout=None, stderr=None) -> int:
    """Execute one configuration; report to stdout, diagnostics to stderr."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    started = time.perf_counter()
    try:
        result = _compute(config)
    except (InputError, EvaluationError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2 if isinstance(exc, InputError) else 3
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(render_json(config, result), file=stdout)
    print(f"elapsed_ms={elapsed_ms:.3f}", file=stderr)
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
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
