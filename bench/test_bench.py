"""Tests of the benchmark's own parts: tracer, reference checker, workloads.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math

import mpmath
import pytest

import refcheck
from run import REFERENCES, call_cli, layer_metrics, load_cli
from tracer import Span, Tracer, self_times
from workloads import WARMUP, WORKLOADS, request_precision

cli = load_cli()
REFS = json.loads(REFERENCES.read_text())


def test_self_times_of_synthetic_tree():
    spans = [
        Span(0, None, 1, "root", 0.0, 10.0),
        Span(1, 0, 1, "a", 1.0, 3.0),
        Span(2, 1, 1, "a.child", 1.5, 2.0),
        Span(3, 0, 1, "b", 2.0, 5.0),  # overlaps a: the union [1, 5] counts once
        Span(4, 0, 1, "c", 8.0, 12.0),  # runs past its parent: clipped to [8, 10]
    ]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 1.5, 2: 0.5, 3: 3.0, 4: 4.0}


def test_covered_share_leaves_out_the_root_spans_self_time():
    spans = [
        Span(0, None, 1, "cli.main", 0.0, 10.0),
        Span(1, 0, 1, "cli.build_parser", 0.5, 1.5),
        Span(2, 0, 1, "cli.run", 2.0, 9.0),
        Span(3, 2, 1, "normal_basis.conjugates", 3.0, 8.0),
    ]
    values = layer_metrics(spans, wall=10.0, context_misses=0, output_bytes=0)
    assert values["trace.covered_share"][0] == pytest.approx(0.8)
    assert values["cli.main.self_ms"][0] == pytest.approx(2000.0)
    assert values["cli.run.self_ms"][0] == pytest.approx(2000.0)


def test_tracer_wraps_every_binding_and_restores_them():
    from siegelcm import normal_basis, reciprocity, siegel_eval

    originals = (siegel_eval.siegel_power, normal_basis.siegel_power, reciprocity.w_group)
    tracer = Tracer()
    tracer.install("siegelcm", [("siegel_eval", "siegel_power", None), ("reciprocity", "w_group", None),
                                ("normal_basis", "conjugates", None)])
    try:
        assert normal_basis.siegel_power is siegel_eval.siegel_power is not originals[0]
        tracer.request = 7
        code, _ = call_cli(cli, ["normal-basis", "--disc", "-20", "-N", "6"])
    finally:
        tracer.restore()
    assert code == 0
    assert (siegel_eval.siegel_power, normal_basis.siegel_power, reciprocity.w_group) == originals
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert len(by_name["siegel_eval.siegel_power"]) == 8
    (conj,) = by_name["normal_basis.conjugates"]
    assert all(s.parent == conj.id and s.request == 7 for s in by_name["siegel_eval.siegel_power"])
    assert by_name["reciprocity.w_group"][0].parent == conj.id


def test_every_request_has_a_reference():
    missing = [
        refcheck.request_key(argv)
        for w in WORKLOADS.values()
        for argv in w.requests
        if refcheck.request_key(argv) not in REFS
    ]
    assert not missing


def _checked(argv):
    code, text = call_cli(cli, argv)
    assert code == 0
    return json.loads(text)["result"]


def test_checker_accepts_this_commit_and_flags_a_perturbed_coefficient():
    argv = list(WARMUP)
    key = refcheck.request_key(argv)
    result = _checked(argv)
    problems, bits = refcheck.check_result("minpoly", 256, result, REFS[key])
    assert problems == [] and bits == 256  # exact fields only: agreement at the cap
    result["coefficients"][3] = str(int(result["coefficients"][3]) + 1)
    problems, _ = refcheck.check_result("minpoly", 256, result, REFS[key])
    assert problems == ["coefficients differ from the reference"]


def test_checker_flags_a_value_off_by_half_the_precision():
    argv = ("normal-basis", "--disc", "-20", "-N", "5")
    key = refcheck.request_key(argv)
    p = request_precision(argv)
    result = _checked(argv)
    assert refcheck.check_result("normal-basis", p, result, REFS[key])[0] == []
    ctx = mpmath.mp.clone()
    ctx.prec = 2 * p
    row = result["conjugates"][2]
    z = refcheck.parse_complex(row["value"], ctx) * (1 + ctx.mpf(2) ** -(p // 2))
    row["value"] = refcheck.format_complex(z, math.ceil(0.3 * p), ctx)
    problems, bits = refcheck.check_result("normal-basis", p, result, REFS[key])
    assert len(problems) == 1 and refcheck.conjugate_key(row) in problems[0]
    assert bits == pytest.approx(p // 2, abs=1)


def test_checker_flags_a_changed_certificate_field():
    argv = ("normal-basis", "--disc", "-24", "-N", "5")
    key = refcheck.request_key(argv)
    result = _checked(argv)
    result["criterion"]["m"] += 1
    problems, _ = refcheck.check_result("normal-basis", 256, result, REFS[key])
    assert problems and problems[0].startswith("criterion.m")


@pytest.mark.parametrize(
    "text, re, im",
    [("1.5e-5-2.25e-7i", 1.5e-5, -2.25e-7), ("-3.0+0.5i", -3.0, 0.5), ("2.0-1.0e+3i", 2.0, -1000.0)],
)
def test_parse_complex_splits_at_the_sign_between_parts(text, re, im):
    z = refcheck.parse_complex(text, mpmath.mp.clone())
    assert (float(z.real), float(z.imag)) == (re, im)


def test_compare_refuses_runs_with_different_backends(tmp_path, capsys):
    import compare

    record = {"workload": "wide-256", "trace": 0, "metrics": {"wall_s": {"value": 2.0, "unit": "s"}},
              "env": {"backend": "python", "gmpy2": False}}
    (tmp_path / "a.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    record["env"] = {"backend": "gmpy", "gmpy2": True}
    (tmp_path / "b.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "different mpmath backends" in capsys.readouterr().err
