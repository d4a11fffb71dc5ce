"""Semantic comparison of CLI results with the committed references.

A reference is computed once at twice the request's precision
(``make_references.py``) and keyed by the request's argv joined with
spaces.  Only the fields that carry the answer are compared, so a later
schema bump or an added ``diagnostics`` block does not break the check:

- ``forms``: the set of reduced forms, exactly;
- ``invariant``: the value, to the requested precision minus SLACK_BITS;
- ``normal-basis``: the values, keyed by (form, vector), to the same
  agreement, plus the certificate fields ``passes``, ``m``, ``group_order``;
- ``minpoly``: the coefficients and the certificate fields, exactly.

Values are parsed with mpmath directly, never through the library under
test.  Agreement is -log2(|a - b| / max(|a|, |b|)) bits, capped at the
requested precision, and measured only on values compared with a
reference.  ``forms`` and ``minpoly`` return no such value: their fields
are exact and must match exactly, so they count as agreement at the cap.
A ``minpoly``'s snap headroom is the program's own figure, not a
comparison with the reference; the traced run reports it.
"""

from __future__ import annotations

import mpmath

# Decimal rendering at ceil(0.3 p) digits, plus the value's own error of
# 2^-p, costs about 3 bits; 16 leaves room for that without letting a
# value that lost a byte of accuracy pass.
SLACK_BITS = 16

CERTIFICATE_FIELDS = ("passes", "m", "group_order")


def request_key(argv) -> str:
    return " ".join(argv)


def mp_context(bits: int):
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    return ctx


def parse_complex(text: str, ctx):
    """Parse the CLI's 're+imi' / 're-imi' rendering into an mpc."""
    body = text[:-1] if text.endswith("i") else text
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            return ctx.mpc(ctx.mpf(body[:k]), ctx.mpf(body[k:]))
    raise ValueError(f"not a complex value: {text!r}")


def format_complex(z, digits: int, ctx) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{ctx.nstr(z.real, digits)}{sign}{ctx.nstr(abs(z.imag), digits)}i"


def agreement_bits(a: str, b: str, cap: int) -> float:
    """Bits of relative agreement of two rendered values, at most ``cap``."""
    ctx = mp_context(2 * cap + 64)
    x, y = parse_complex(a, ctx), parse_complex(b, ctx)
    diff = abs(x - y)
    scale = max(abs(x), abs(y))
    if diff == 0:
        return float(cap)
    if scale == 0:
        return 0.0
    return min(float(cap), float(-ctx.log(diff / scale, 2)))


def conjugate_key(row: dict) -> str:
    a, b, c = row["form"]
    v, w = row["vector"]
    return f"{a},{b},{c}|{v},{w}"


def _check_certificate(result: dict, ref: dict, problems: list[str]):
    got = result.get("criterion", {})
    for field in CERTIFICATE_FIELDS:
        if got.get(field) != ref["criterion"][field]:
            problems.append(f"criterion.{field}: {got.get(field)!r} != {ref['criterion'][field]!r}")


def _check_value(name: str, got: str, want: str, precision: int, problems: list[str]) -> float:
    bits = agreement_bits(got, want, precision)
    if bits < precision - SLACK_BITS:
        problems.append(f"{name}: {bits:.1f} bits of agreement, need {precision - SLACK_BITS}")
    return bits


def check_result(subcommand: str, precision: int, result: dict, ref: dict) -> tuple[list[str], float]:
    """Problems found, and the least agreement in bits over the values
    compared with the reference (``precision`` when there are none)."""
    problems: list[str] = []
    least = float(precision)
    if subcommand == "forms":
        got = sorted(map(tuple, result.get("forms", [])))
        if got != sorted(map(tuple, ref["forms"])):
            problems.append(f"forms: {got} != {ref['forms']}")
    elif subcommand == "invariant":
        least = _check_value("value", result.get("value", ""), ref["value"], precision, problems)
    elif subcommand == "normal-basis":
        _check_certificate(result, ref, problems)
        rows = {conjugate_key(row): row["value"] for row in result.get("conjugates", [])}
        if result.get("count") != len(ref["values"]) or rows.keys() != ref["values"].keys():
            problems.append(f"conjugates: {len(rows)} labels, expected {len(ref['values'])}")
        for key, want in ref["values"].items():
            if key in rows:
                least = min(least, _check_value(f"conjugate {key}", rows[key], want, precision, problems))
    elif subcommand == "minpoly":
        _check_certificate(result, ref, problems)
        if result.get("coefficients") != ref["coefficients"]:
            problems.append("coefficients differ from the reference")
    else:
        problems.append(f"no check for subcommand {subcommand!r}")
    return problems, least
