"""Tests for the command-line front end: payloads, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import mpmath
import pytest

from siegelcm import cli, conjugates, context, rounded, validate_discriminant
from siegelcm.cli import RunConfig, format_complex, main, run
from siegelcm.errors import EvaluationError, InputError
from siegelcm.normal_basis import CriterionReport

from test_normal_basis import VERIFIED_POLY_20_6


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(**vars(cli.build_parser().parse_args(argv)))
    code = run(config, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_forms_subcommand():
    code, out, err = run_cli(["forms", "--disc", "-20"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 4
    assert doc["config"]["subcommand"] == "forms"
    assert doc["result"]["class_number"] == 2
    assert doc["result"]["forms"] == [[1, 0, 5], [2, 2, 3]]
    assert "elapsed_ms=" in err


def test_forms_rejects_nonfundamental():
    code, out, err = run_cli(["forms", "--disc", "-12"])
    assert code == 2
    assert out == ""
    assert "fundamental" in err


@pytest.mark.parametrize("disc", ["-3", "-4"])
def test_excluded_field_exit_code(disc):
    # only the subcommands that enumerate conjugates exclude these fields
    for subcommand in ("conjugates", "normal-basis", "minpoly"):
        code, out, err = run_cli([subcommand, "--disc", disc, "-N", "6"])
        assert code == 2
        assert out == ""
        assert "error" in err
    for subcommand in ("forms", "invariant"):
        code, out, _ = run_cli([subcommand, "--disc", disc, "-N", "6"])
        assert code == 0
        assert json.loads(out)["result"]


def test_run_config_validation():
    with pytest.raises(InputError):
        RunConfig(subcommand="forms", disc=-20, level=None, precision=32)
    with pytest.raises(InputError):
        RunConfig(subcommand="minpoly", disc=-20, level=1)
    with pytest.raises(InputError, match="got 1"):
        RunConfig(subcommand="forms", disc=-20, level=1)  # a given level is checked too
    with pytest.raises(InputError):
        RunConfig(subcommand="minpoly", disc=-20, level=6, format="yaml")
    with pytest.raises(InputError):
        RunConfig(subcommand="modpoly", disc=-20, level=6)


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
    assert doc["result"]["coefficients"] == [str(c) for c in VERIFIED_POLY_20_6]
    assert doc["result"]["max_rounding_residual"] < 1e-10


def test_minpoly_snap_failure_exit_code():
    code, out, err = run_cli(["minpoly", "--disc", "-8", "-N", "2"])
    assert code == 3
    assert out == ""
    assert "not within" in err


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
    assert row["point"] == {"p": -1, "q": 2, "d": -7}


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


def test_text_format_same_numbers():
    _, jout, _ = run_cli(["minpoly", "--disc", "-20", "-N", "6"])
    _, tout, _ = run_cli(["minpoly", "--disc", "-20", "-N", "6", "--format", "text"])
    doc = json.loads(jout)
    for coeff in doc["result"]["coefficients"]:
        assert coeff in tout
    assert str(doc["result"]["criterion"]["max_ratio"]) in tout
    assert "subcommand: minpoly" in tout


def test_precision_flag_changes_rendering():
    _, out128, _ = run_cli(["invariant", "--disc", "-20", "-N", "6", "--precision", "128"])
    _, out256, _ = run_cli(["invariant", "--disc", "-20", "-N", "6"])
    v128 = json.loads(out128)["result"]["value"]
    v256 = json.loads(out256)["result"]["value"]
    assert len(v128) < len(v256)
    assert v128[:20] == v256[:20]  # same leading digits


def test_format_complex_signs():
    # at 16 bits |z| 2^-16 is about 4e-5, so the parts are rounded at 1e-5
    plus = rounded(mpmath.mpc(1.5, 2.5), 16)
    minus = rounded(mpmath.mpc(1.5, -2.5), 16)
    assert format_complex(plus) == "1.5+2.5i"
    assert format_complex(minus) == "1.5-2.5i"
    # a part below the error bound |z| 2^-p prints as 0.0, never with its sign
    assert format_complex(rounded(mpmath.mpc(1263806.75, 3.16e-91), 256)) == "1263806.75+0.0i"
    assert format_complex(rounded(mpmath.mpc(1263806.75, -3.16e-91), 256)) == "1263806.75+0.0i"
    assert format_complex(rounded(mpmath.mpc(-1e-30, -5), 64)) == "0.0-5.0i"
    assert format_complex(rounded(mpmath.mpc(2**1000, 2**900), 64)).endswith("e+301+0.0i")
    # 0.001 rounds to 0.00099998712 at 16 bits, printed to the place 1e-8
    assert format_complex(rounded(mpmath.mpc(0.001, 1e-9), 16)) == "0.00099999+0.0i"
    with pytest.raises(EvaluationError, match="non-finite"):
        format_complex(rounded(mpmath.mpc(mpmath.nan, 1), 64))


def _printed_parts(text, ctx):
    body = text.removesuffix("i")
    k = max(i for i, c in enumerate(body) if c in "+-" and i > 0 and body[i - 1] != "e")
    return ctx.mpf(body[:k]), ctx.mpf(body[k:])


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


def test_main_entry_point(capsys):
    code = main(["forms", "--disc", "-23"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["result"]["forms"] == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]


def test_main_rejects_low_precision(capsys):
    code = main(["forms", "--disc", "-20", "--precision", "16"])
    assert code == 2
    assert "precision" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["1", "-5"])
def test_forms_rejects_bad_given_level(capsys, level):
    code = main(["forms", "--disc", "-20", "-N", level])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"level must be an integer >= 2, got {level}" in captured.err


def test_parser_requires_level_for_minpoly(capsys):
    code = main(["minpoly", "--disc", "-20"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "level" in captured.err


@pytest.mark.parametrize(
    "flag, value", [("--threads", "2"), ("--guard", "64"), ("--snap-tolerance", "1e-10")]
)
def test_removed_flags_are_rejected(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["conjugates", "--disc", "-20", "-N", "6", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# Change detector, not a correctness reference: output_pins.json holds the
# exit code and the sha256 of stdout of a few requests, recorded from the
# program itself.  A change that alters any output byte fails here; only a
# change that announces an output change may re-record the file, with
# ``PYTHONPATH=src python tests/test_cli.py``, which prints the argv of
# every pin whose record it changes.
PINS_PATH = Path(__file__).with_name("output_pins.json")


def _pin(argv):
    code, out, _ = run_cli(argv)
    return {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


def test_output_pins():
    moved = [pin["argv"] for pin in json.loads(PINS_PATH.read_text()) if _pin(pin["argv"]) != pin]
    assert not moved, f"output changed for {moved}"


if __name__ == "__main__":
    old = json.loads(PINS_PATH.read_text())
    new = [_pin(pin["argv"]) for pin in old]
    for before, after in zip(old, new):
        if before != after:
            print("re-recorded:", " ".join(after["argv"]))
    PINS_PATH.write_text(json.dumps(new, indent=1) + "\n")
