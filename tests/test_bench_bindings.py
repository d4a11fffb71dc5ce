"""What the benchmark binds by name: ``bench/run.py``'s tracer targets and notes.

The tracer in ``bench/`` wraps library functions by module and name, and
its notes read ``siegel_power``'s arguments and the snap residuals, so a
rename or a removed attribute breaks only the traced benchmark passes.
These tests make such a break a Tier-1 failure.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from siegelcm import cli, context, normal_basis, siegel_eval
from siegelcm.errors import SnapFailureError
from siegelcm.normal_basis import IntPolynomial

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def run_module():
    """bench/run.py loaded by path; sys.path and the bench modules it imports are restored."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]


def test_every_trace_target_is_callable_where_it_is_bound(run_module):
    targets = run_module._trace_targets()
    assert targets
    for module_name, function, _ in targets:
        module = importlib.import_module(f"siegelcm.{module_name}")
        assert callable(getattr(module, function, None)), f"siegelcm.{module_name}.{function}"


def test_the_invariant_is_one_function_under_both_names():
    # the tracer wraps the one function object under every name that holds it
    assert normal_basis.siegel_ramachandra_invariant is siegel_eval.siegel_ramachandra_invariant


def test_note_power_binds_siegel_powers_arguments(run_module):
    parameters = inspect.signature(siegel_eval.siegel_power).parameters
    assert {"tau", "precision", "guard"} <= set(parameters)
    note = {name: note for _, name, note in run_module._trace_targets()}["siegel_power"]
    tau = context(128).mpc(0.5, 2)
    info = note((0, 1, tau, 6), {"precision": 128}, None, None)
    assert info["tau"] == [0.5, 2.0] and info["terms"] > 2


def test_the_context_cache_statistics_are_reachable_from_cli():
    assert cli.context is context
    assert callable(cli.context.cache_info)


def test_note_snap_reads_both_residuals(run_module):
    note = {name: note for _, name, note in run_module._trace_targets()}["minimal_polynomial"]
    records = [object(), object()]
    poly = IntPolynomial(coefficients=(1, 0, -1), max_rounding_residual=0.25, max_imag_residual=0.0)
    assert note((records,), {}, poly, None) == {"n": 2, "ok": True, "residual": 0.25}
    failure = SnapFailureError("no snap", max_rounding_residual=0.5, max_imag_residual=0.0)
    assert note((), {"records": records}, None, failure) == {"n": 2, "ok": False, "residual": 0.5}
