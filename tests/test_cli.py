"""Tests for the command-line front end: payloads, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from math import floor, log10
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import mpf_pow_int

from siegelcm import cli, conjugates, context, siegel_ramachandra_invariant, validate_discriminant
from siegelcm.cli import format_complex, main
from siegelcm.errors import EvaluationError
from siegelcm.normal_basis import CriterionReport
from siegelcm.reciprocity import w_group

from test_acceptance import REFERENCE_POLY_20_6


def run_cli(argv):
    """main(argv) as (exit code, stdout, stderr); argparse's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_forms_subcommand():
    code, out, err = run_cli(["forms", "--disc", "-20"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 6
    assert doc["config"]["subcommand"] == "forms"
    assert "discriminant" not in doc["result"]  # config.disc holds it
    assert doc["result"]["class_number"] == 2
    assert doc["result"]["forms"] == [[1, 0, 5], [2, 2, 3]]
    assert "elapsed_ms=" in err


# Every rejected request: (argv, exit code, a fragment of stderr).  run's own
# two rules, the library's InputError (2) and EvaluationError (3), then
# argparse's types, choices and removed flags (2, through SystemExit).
INPUT_RULES = [
    ("forms --disc -20 --precision 32", 2, "precision must be >= 64 bits"),
    ("forms --disc -20 --precision 16", 2, "precision"),
    ("minpoly --disc -20 -N 1", 2, "level must be an integer >= 2, got 1"),
    ("forms --disc -20 -N 1", 2, "level must be an integer >= 2, got 1"),  # a given level is checked too
    ("forms --disc -20 -N -5", 2, "level must be an integer >= 2, got -5"),
    ("minpoly --disc -20", 2, "level must be an integer >= 2, got None"),
    ("forms --disc -12", 2, "fundamental"),
    # only the subcommands that enumerate conjugates exclude these fields
    *((f"{sub} --disc {d} -N 6", 2, "needs extra units")
      for sub in ("conjugates", "normal-basis", "minpoly") for d in (-3, -4)),
    ("minpoly --disc -8 -N 2", 3, "not within"),
    ("modpoly --disc -20 -N 6", 2, "invalid choice: 'modpoly'"),
    ("forms --disc -20 --precision 256.5", 2, "invalid int value: '256.5'"),
    ("forms --disc -20.5", 2, "invalid int value: '-20.5'"),
    *((f"conjugates --disc -20 -N 6 {flag} {value}", 2, flag) for flag, value in (
        ("--threads", "2"), ("--guard", "64"), ("--snap-tolerance", "1e-10"), ("--format", "text"))),
]


@pytest.mark.parametrize("argv, code, message", INPUT_RULES, ids=[row[0] for row in INPUT_RULES])
def test_cli_input_rules(argv, code, message):
    # each rejection prints no report
    got, out, err = run_cli(argv.split())
    assert (got, out) == (code, "")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [["minpoly", "--disc", "-95", "-N", "12", "--precision", "512"], ["forms", "--disc", "-20", "-N", "6"]],
)
def test_argv_order_does_not_change_the_report(argv):
    # the JSON config lists subcommand, disc, level, precision whatever the argv order
    _, expected, _ = run_cli(argv)
    groups = [argv[:1]] + [argv[i : i + 2] for i in range(1, len(argv), 2)]
    for order in itertools.permutations(groups):
        permuted = [token for group in order for token in group]
        assert run_cli(permuted)[1] == expected, permuted


def test_normal_basis_subcommand():
    code, out, _ = run_cli(["normal-basis", "--disc", "-20", "-N", "6"])
    assert code == 0
    doc = json.loads(out)
    crit = doc["result"]["criterion"]
    assert crit["passes"] is True
    assert crit["m"] == 1
    assert crit["group_order"] == 8
    assert crit["max_ratio"] < 1e-4
    assert doc["result"]["count"] == 8
    rows = doc["result"]["conjugates"]
    assert [row["vector"] for row in rows][:4] == [[0, 1], [1, 0], [3, 2], [2, 3]]
    assert all("value" in row and "i" in row["value"] for row in rows)


def test_minpoly_subcommand():
    code, out, _ = run_cli(["minpoly", "--disc", "-20", "-N", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["degree"] == 8
    assert doc["result"]["coefficients"] == [str(c) for c in REFERENCE_POLY_20_6]
    assert doc["result"]["max_rounding_residual"] < 1e-10
    assert doc["schema"] == 6
    assert "max_imag_residual" not in doc["result"]


def test_minpoly_failed_certificate_exit_code(monkeypatch):
    def failing(records):
        return CriterionReport(passes=False, max_ratio=1.5, m=None, group_order=len(records), ratios=())

    monkeypatch.setattr(cli, "check_criterion", failing)
    code, out, err = run_cli(["minpoly", "--disc", "-20", "-N", "6"])
    assert code == 3
    assert out == ""
    assert "certificate failed" in err


def test_conjugates_subcommand():
    code, out, _ = run_cli(["conjugates", "--disc", "-7", "-N", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 1
    row = doc["result"]["conjugates"][0]
    assert row["vector"] == [0, 1]
    assert row["form"] == [1, 1, 2]
    # a row is its index (alpha, form), its vector and its value; the form's
    # CM point is theta_of_form(form), so the row does not repeat it
    code, out, _ = run_cli(["conjugates", "--disc", "-20", "-N", "6"])
    assert code == 0
    rows = json.loads(out)["result"]["conjugates"]
    assert all(row.keys() == {"alpha", "form", "vector", "value"} for row in rows)
    assert [row["form"] for row in rows] == [[1, 0, 5]] * 4 + [[2, 2, 3]] * 4
    # alpha is the W class's canonical matrix, in the group's order within each form
    group = [[[m.m11, m.m12], [m.m21, m.m22]] for m in w_group(validate_discriminant(-20), 6)]
    assert [row["alpha"] for row in rows] == group * 2


def test_invariant_subcommand():
    code, out, _ = run_cli(["invariant", "--disc", "-7", "-N", "2"])
    assert code == 0
    doc = json.loads(out)
    # frozen: this invariant is exactly 1
    assert doc["result"]["value"].startswith("1.0")


def test_byte_identical_output():
    _, first, _ = run_cli(["normal-basis", "--disc", "-20", "-N", "6"])
    _, second, _ = run_cli(["normal-basis", "--disc", "-20", "-N", "6"])
    assert first == second
    _, third, _ = run_cli(["minpoly", "--disc", "-20", "-N", "6"])
    _, fourth, _ = run_cli(["minpoly", "--disc", "-20", "-N", "6"])
    assert third == fourth


def test_precision_flag_changes_rendering():
    _, out128, _ = run_cli(["invariant", "--disc", "-20", "-N", "6", "--precision", "128"])
    _, out256, _ = run_cli(["invariant", "--disc", "-20", "-N", "6"])
    v128 = json.loads(out128)["result"]["value"]
    v256 = json.loads(out256)["result"]["value"]
    assert len(v128) < len(v256)
    assert v128[:20] == v256[:20]  # same leading digits


def test_format_complex_signs():
    # at 16 bits |z| 2^-16 is about 4e-5, so the parts are rounded at 1e-5
    plus = context(16).mpc(1.5, 2.5)
    minus = context(16).mpc(1.5, -2.5)
    assert format_complex(plus) == "1.5+2.5i"
    assert format_complex(minus) == "1.5-2.5i"
    # a part below the error bound |z| 2^-p prints as 0.0, never with its sign
    assert format_complex(context(256).mpc(1263806.75, 3.16e-91)) == "1263806.75+0.0i"
    assert format_complex(context(256).mpc(1263806.75, -3.16e-91)) == "1263806.75+0.0i"
    assert format_complex(context(64).mpc(-1e-30, -5)) == "0.0-5.0i"
    assert format_complex(context(64).mpc(2**1000, 2**900)).endswith("e+301+0.0i")
    # 0.001 rounds to 0.00099998712 at 16 bits, printed to the place 1e-8
    assert format_complex(context(16).mpc(0.001, 1e-9)) == "0.00099999+0.0i"
    with pytest.raises(EvaluationError, match="non-finite"):
        format_complex(context(64).mpc(mpmath.nan, 1))


def _exact_rounded(man, exp, place):
    # the quotient man 2^exp / 10^place in exact integers, rounded halves up
    num, den = man * 2 ** max(exp, 0) * 10 ** max(-place, 0), 2 ** max(-exp, 0) * 10 ** max(place, 0)
    return (2 * num + den) // (2 * den)


def test_rounded_matches_exact_integers(monkeypatch):
    # seeded sweep over both signs of exp and place, small (exact integers)
    # and large (bounds first), quotients below 1, near ties and exact ties:
    # for exp = place - 1 and man = (2k + 1) 5^max(place, 0) the quotient is
    # (2k + 1) 5^|place| / 2
    bounded = []
    monkeypatch.setattr(cli, "mpf_pow_int", lambda *args: bounded.append(args) or mpf_pow_int(*args))
    rng = random.Random(20261019)
    cases = [(0, 0, place) for place in (-40, 0, 40, -20000, 20000)]
    for size in (500, 60000):
        for _ in range(150):
            man = rng.getrandbits(rng.randint(1, 300)) | 1
            exp = rng.randint(-size, size)
            top = floor((exp + man.bit_length()) * log10(2))  # as format_complex places it, or one above
            cases += [(man, exp, top - rng.randint(0, 90)), (man, exp, top + 1)]
            cases.append((man, exp, rng.randint(-size // 3, size // 3)))
    for _ in range(60):
        # near ties: man 5^a 2^-150 = K + 1/2 +- 2^-150 at place -a, and
        # man 2^(t+p-1) / 10^p = K + 1/2 +- 1/(2 5^p) with 2K + 1 = -+5^-p
        # mod 2^t; a bound that rounds onto the half leaves them to the
        # exact integers
        a, p, t = rng.randint(2000, 6000), rng.randint(30, 100), rng.randint(9000, 11000)
        s = rng.choice((-1, 1))
        low = ((1 << 149) + s) * pow(5**a, -1, 1 << 150) % (1 << 150)
        cases.append((low + (rng.getrandbits(20) << 150), -150 - a, -a))
        odd = -s * pow(5**p, -1, 1 << t) % (1 << t)
        cases.append(((odd * 5**p + s) >> t, t + p - 1, p))
    ties = []
    for size in (60, 20000):
        for _ in range(100):
            place, odd = rng.randint(-size, 60), 2 * rng.getrandbits(rng.randint(1, 200)) + 1
            ties.append((odd * 5 ** max(place, 0), place - 1, place))
    for man, exp, place in cases + ties:
        want = _exact_rounded(man, exp, place)
        assert cli._rounded(man, exp, man.bit_length(), place) == want, (man, exp, place)
    for man, exp, place in ties:
        twice = 2 * Fraction(man) * Fraction(2) ** exp / Fraction(10) ** place
        assert twice.denominator == 1 and twice.numerator % 2 == 1
    assert len(bounded) > 200  # both paths ran


def test_conjugate_text_flips_the_imaginary_sign():
    # exponents on either part, negative real parts, imaginary parts that
    # print as 0.0: z and conj(z) share their parts, and either sign joins
    # them into format_complex's own text
    rng = random.Random(7)
    for _ in range(400):
        ctx = context(rng.choice((16, 53, 64, 256)))
        re, im = (rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-40, 40) for _ in range(2))
        z = ctx.mpc(re, im)
        parts, negative = cli._parts(z), z._mpc_[1][0]
        assert cli._parts(z.conjugate()) == parts
        assert cli._joined(parts, not negative) == format_complex(z.conjugate()), parts


@pytest.mark.parametrize("d, N, p", [(-56, 12, 64), (-71, 30, 256), (-1031, 7, 256)])
def test_conjugate_rows_print_format_complex_of_every_record(d, N, p):
    # rows render the parts once per conjugate pair and join each row's sign;
    # each row must still read format_complex of its own record
    records = conjugates(validate_discriminant(d), N, precision=p)
    texts = [row["value"] for row in cli._conjugate_rows(records)]
    assert texts == [format_complex(rec.value) for rec in records]
    assert any(rec.value.imag < 0 for rec in records)
    assert any(text.endswith("+0.0i") for text in texts)  # real values, on self-partnered forms


def _printed_parts(text, ctx):
    # through Decimal, which reads past CPython's 4300-digit limit on int(str)
    body = text.removesuffix("i")
    k = max(i for i, c in enumerate(body) if c in "+-" and i > 0 and body[i - 1] != "e")
    ratios = (Decimal(part).as_integer_ratio() for part in (body[:k], body[k:]))
    return tuple(ctx.mpf(num) / den for num, den in ratios)


@pytest.mark.parametrize("d, N, p", [(-1031, 7, 256), (-56, 12, 64)])
def test_printed_digits_are_certified(d, N, p):
    # every printed part is within 2^(1-p)|z| of the value at 2p bits
    disc = validate_discriminant(d)
    ctx = context(4 * p)
    two = ctx.mpf(2)
    real = 0
    for rec, fine in zip(conjugates(disc, N, precision=p), conjugates(disc, N, precision=2 * p)):
        z = ctx.mpc(fine.value)
        text = format_complex(rec.value)
        re, im = _printed_parts(text, ctx)
        assert abs(re - z.real) <= abs(z) * two ** (1 - p), text
        assert abs(im - z.imag) <= abs(z) * two ** (1 - p), text
        if abs(z.imag) <= abs(z) * two ** (16 - 2 * p):  # real to the 2p-bit noise
            assert text.endswith("+0.0i")
            real += 1
    assert real > 0


def test_values_print_past_the_int_str_limit():
    # 14400 bits print the real part to about 4335 digits, past the 4300 that str(int) allows
    p = 14400
    code, out, _ = run_cli(["invariant", "--disc", "-20", "-N", "6", "--precision", str(p)])
    assert code == 0
    text = json.loads(out)["result"]["value"]
    assert sum(c.isdigit() for c in text) > 4300
    ctx = context(2 * p)
    z = ctx.mpc(siegel_ramachandra_invariant(validate_discriminant(-20), 6, precision=p))
    re, im = _printed_parts(text, ctx)
    assert abs(re - z.real) <= abs(z) * ctx.mpf(2) ** -p
    assert abs(im - z.imag) <= abs(z) * ctx.mpf(2) ** -p


def test_digits_match_str_past_the_limit():
    numbers = [0] + [sign * (10 ** (k - 1) + 7**k) for k in (4301, 20000) for sign in (1, -1)]
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
    limit = get_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = [str(n) for n in numbers]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert [len(text.lstrip("-")) for text in expected] == [1, 4301, 4301, 20000, 20000]
    assert [cli._digits(n) for n in numbers] == expected
    assert get_limit() == limit


def _dumps(config, result):
    return json.dumps({"schema": cli.SCHEMA_VERSION, "config": vars(config), "result": result})


def test_render_json_matches_json_dumps_on_pinned_requests(pinned_runs):
    # every report is exactly one line, the compact json.dumps of what it holds
    printed = 0
    for pin, code, out in pinned_runs:
        if code != 0:
            continue
        line = out.removesuffix("\n")
        assert "\n" not in line, pin["argv"]
        assert line == json.dumps(json.loads(line)), pin["argv"]
        printed += 1
    assert printed == sum(pin["exit"] == 0 for pin, _, _ in pinned_runs)


@pytest.mark.parametrize(
    "value",
    [
        {}, [], (), [[], {}, [[]]], {"a": {}, "b": []}, (1, (2, 3)), [(), {"t": ()}],
        -0.0, 0.0, 1e-300, 1e300, 0.1, float("nan"), float("inf"), float("-inf"),
        True, False, None, 0, -(10**40), "", "caf\u00e9 \"q\" \\ \n\t\x01",
    ],
)
def test_render_json_matches_json_dumps_on_edge_values(value):
    config = cli.build_parser().parse_args(["forms", "--disc", "-20"])
    for result in ({"edge": value}, {"edge": [value, {"nested": value}], "after": 1}):
        text = cli.render_json(config, result)
        assert text == _dumps(config, result)
        assert "\n" not in text  # a newline inside a string is escaped


@pytest.mark.parametrize("value", [object(), {1, 2}, mpmath.mpf(1), b"bytes"])
def test_render_json_rejects_unsupported_types(value):
    config = cli.build_parser().parse_args(["forms", "--disc", "-20"])
    with pytest.raises(TypeError):
        _dumps(config, {"edge": value})
    with pytest.raises(TypeError):
        cli.render_json(config, {"edge": [value]})


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_keeps_no_state(capsys):
    assert main(["minpoly", "--disc", "-20", "-N", "6"]) == 0
    capsys.readouterr()
    assert main(["forms", "--disc", "-20"]) == 0
    out = capsys.readouterr().out
    assert '"level": null' in out
    doc = json.loads(out)
    assert doc["config"]["precision"] == 256


def test_main_entry_point(capsys):
    code = main(["forms", "--disc", "-23"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["result"]["forms"] == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]


# Change detector, not a correctness reference: output_pins.json holds the
# exit code and the sha256 of stdout of a few requests, recorded from the
# program itself.  A change that alters any output byte fails here; only a
# change that announces an output change may re-record the file, with
# ``PYTHONPATH=src python tests/test_cli.py``, which prints the argv of
# every pin whose record it changes.
PINS_PATH = Path(__file__).with_name("output_pins.json")


def _pin(argv, code, out):
    return {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


@pytest.fixture(scope="module")
def pinned_runs():
    """Each pinned request run once, as (pin, exit code, stdout)."""
    return [(pin, *run_cli(pin["argv"])[:2]) for pin in json.loads(PINS_PATH.read_text())]


def test_output_pins(pinned_runs):
    moved = [pin["argv"] for pin, code, out in pinned_runs if _pin(pin["argv"], code, out) != pin]
    assert not moved, f"output changed for {moved}"


if __name__ == "__main__":
    old = json.loads(PINS_PATH.read_text())
    new = [_pin(pin["argv"], *run_cli(pin["argv"])[:2]) for pin in old]
    for before, after in zip(old, new):
        if before != after:
            print("re-recorded:", " ".join(after["argv"]))
    PINS_PATH.write_text(json.dumps(new, indent=1) + "\n")
