"""siegelcm benchmark: seeded CLI request lists, checked against references.

    python3 bench/run.py --workload grid-256 --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: the requests of a workload go one at
a time through the in-process CLI entry point ``siegelcm.cli.main``, with
default flags, in an order shuffled by ``--seed``.  Passes over the list
repeat until ``--seconds`` have elapsed; every answer of every pass is
checked against ``bench/references.json`` (see ``refcheck.py``).

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``tracer.py``), plus the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
list every metric by name and unit.  A full record of the run, with the
environment, goes to ``.bench_out/`` at the root of the checkout, and a
traced run also writes its spans there.  METRICS.md describes each metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import refcheck
from tracer import Tracer, self_times
from workloads import WARMUP, WORKLOADS, request_precision

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"

# Fresh interpreters timed for setup_s, spread over the run between passes
# so that they sample the host's speed over the whole run, like the
# passes do; the median is reported.
SETUP_PROBES = 15


def load_cli():
    """Import ``siegelcm.cli`` from the checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "siegelcm" / "cli.py").is_file():
        sys.exit(f"error: no siegelcm sources under {src}")
    sys.path.insert(0, str(src))
    from siegelcm import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: siegelcm was imported from {cli.__file__}, not {src}")
    return cli


def call_cli(cli, argv) -> tuple[int, str]:
    """Run one request through ``cli.main``: its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def probe_setup() -> float:
    """Seconds a fresh interpreter takes to import the CLI and run WARMUP."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe_setup.py")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_pass(cli, requests, tracer: Tracer | None = None):
    """Send every request once; (wall seconds, per-request ms, outcomes)."""
    latencies, outcomes = [], []
    started = time.perf_counter()
    for argv in requests:
        if tracer is not None:
            tracer.request += 1
        t0 = time.perf_counter()
        try:
            code, text = call_cli(cli, argv)
        except Exception:
            code, text = None, traceback.format_exc(limit=3)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        outcomes.append((argv, code, text))
    return time.perf_counter() - started, latencies, outcomes


def check_pass(outcomes, references: dict):
    """(failure messages, least agreement bits, conjugates, output bytes)."""
    failures, least, conjugates, output_bytes = [], math.inf, 0, 0
    for argv, code, text in outcomes:
        key = refcheck.request_key(argv)
        output_bytes += len(text.encode())
        if code != 0:
            failures.append(f"{key}: exit code {code}: {text.strip()[-200:]}")
            continue
        if key not in references:
            failures.append(f"{key}: no reference")
            continue
        try:
            result = json.loads(text)["result"]
            problems, bits = refcheck.check_result(argv[0], request_precision(argv), result, references[key])
        except (ValueError, KeyError, TypeError) as exc:
            problems, bits = [f"unreadable result: {exc!r}"], 0.0
        if problems:
            failures.append(f"{key}: {'; '.join(problems[:3])}")
        least = min(least, bits)
        conjugates += result.get("count", result.get("degree", 0)) if not problems else 0
    return failures, least, conjugates, output_bytes


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, workload, rng, seconds, references):
    call_cli(cli, WARMUP)
    setup, walls, latencies, failures, attempted, least, conjugates = [], [], {}, [], 0, math.inf, 0
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        while len(setup) < SETUP_PROBES * (time.perf_counter() - started) / seconds:
            setup.append(probe_setup())
        wall, lat, outcomes = run_pass(cli, workload.shuffled(rng))
        bad, bits, conj, _ = check_pass(outcomes, references)
        walls.append(wall)
        for (argv, _, _), ms in zip(outcomes, lat):
            latencies.setdefault(argv, []).append(ms)
        failures += bad
        attempted += len(outcomes)
        least = min(least, bits)
        conjugates += conj
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup())
    # Pass walls and each request's latencies are averaged over the run, not
    # taken as medians: wide-256 and deep-minpoly fit only 5-8 passes in a
    # run, and under a host whose speed switches between levels a median of
    # so few samples jumps from one level to the other between runs.  The
    # percentiles are then taken over the request list, since on the
    # few-request workloads a pooled percentile would be an extreme sample
    # of one request kind.
    typical = [statistics.mean(lat) for lat in latencies.values()]
    metrics = {
        "wall_s": _metric(statistics.mean(walls), "s"),
        "request_ms_p50": _metric(statistics.median(typical), "ms"),
        "request_ms_p90": _metric(_p90(typical), "ms"),
        "conjugates_per_s": _metric(conjugates / sum(walls), "1/s"),
        "min_agreement_bits": _metric(least, "bits"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "requests": sum(map(len, latencies.values())), "request_kinds": len(latencies),
        "pass_walls": walls, "setup_probes": setup,
    }
    return metrics, attempted, failures, samples, None


# --- traced run -----------------------------------------------------------


def _trace_targets():
    """(module, function, note) for every wrapped public function."""
    import siegelcm.siegel_eval as siegel_eval
    from siegelcm.errors import SnapFailureError

    power_signature = inspect.signature(siegel_eval.siegel_power)

    def note_power(args, kwargs, result, exc):
        # M from the truncation formula of siegel_eval's docstring
        call = power_signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        imag = float(a["tau"].imag)
        bits = a["precision"] + a["guard"]
        return {
            "terms": math.ceil(bits * math.log(2) / (2 * math.pi * imag)) + 2,
            "tau": [float(a["tau"].real), imag],
        }

    def note_snap(args, kwargs, result, exc):
        records = args[0] if args else kwargs["records"]
        if result is not None:
            residual = max(result.max_rounding_residual, result.max_imag_residual)
        elif isinstance(exc, SnapFailureError) and exc.max_rounding_residual is not None:
            residual = max(exc.max_rounding_residual, exc.max_imag_residual)
        else:
            residual = None
        return {"n": len(records), "ok": result is not None, "residual": residual}

    return [
        ("cli", "main", None),
        ("cli", "build_parser", None),
        ("cli", "run", None),
        ("cli", "format_complex", None),
        ("normal_basis", "conjugates", None),
        ("normal_basis", "check_criterion", None),
        ("normal_basis", "minimal_polynomial", note_snap),
        ("normal_basis", "siegel_ramachandra_invariant", None),
        ("siegel_eval", "siegel_power", note_power),
        ("reciprocity", "conjugate_indices", None),
        ("reciprocity", "w_group", None),
        ("reciprocity", "beta_modN", None),
        ("reciprocity", "act_vector", None),
        ("quadforms", "validate_discriminant", None),
        ("quadforms", "reduced_forms", None),
        ("quadforms", "theta_of_form", None),
        ("exactmath", "to_complex", None),
    ]


def layer_metrics(spans, wall: float, context_misses: int, output_bytes: int) -> dict:
    """Per-layer values of one traced pass: metric name -> (value, unit)."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        t["calls"] += 1
        t["ms"] += s.duration * 1000.0
        t["self_ms"] += own[s.id] * 1000.0
    for t in totals.values():
        t["ms_per_call"] = t["ms"] / t["calls"]
    absent = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "ms_per_call": 0.0}
    values = {
        f"{name}.{stat}": (totals.get(name, absent)[stat], "count" if stat == "calls" else "ms")
        for name, stats in (
            ("siegel_eval.siegel_power", ("calls", "ms", "ms_per_call")),
            ("normal_basis.conjugates", ("ms", "self_ms")),
            ("normal_basis.check_criterion", ("ms",)),
            ("normal_basis.minimal_polynomial", ("ms",)),
            ("reciprocity.conjugate_indices", ("ms",)),
            ("reciprocity.w_group", ("ms",)),
            ("reciprocity.beta_modN", ("calls", "ms")),
            ("reciprocity.act_vector", ("ms",)),
            ("quadforms.reduced_forms", ("calls", "ms")),
            ("exactmath.to_complex", ("calls", "ms")),
            ("cli.run", ("ms", "self_ms")),
            ("cli.main", ("self_ms",)),
            ("cli.build_parser", ("ms",)),
            ("cli.format_complex", ("calls", "ms")),
        )
        for stat in stats
    }

    power = [s for s in spans if s.name == "siegel_eval.siegel_power"]
    forms = {(s.request, tuple(s.info["tau"])) for s in power}
    snaps = [s.info for s in spans if s.name == "normal_basis.minimal_polynomial"]
    ok = [i for i in snaps if i["ok"]]
    headroom = [-math.log2(i["residual"]) for i in ok if i["residual"]]
    values.update({
        "siegel_eval.share": (values["siegel_eval.siegel_power.ms"][0] / (wall * 1000.0), "ratio"),
        "siegel_eval.terms": (sum(s.info["terms"] for s in power), "count"),
        "siegel_eval.calls_per_form": (len(power) / len(forms) if forms else 0.0, "ratio"),
        "normal_basis.expand_mults": (sum(i["n"] * (i["n"] + 1) // 2 for i in snaps), "count"),
        "normal_basis.snap.attempts": (len(snaps), "count"),
        "normal_basis.snap.ok_ratio": (len(ok) / len(snaps) if snaps else 0.0, "ratio"),
        "normal_basis.snap.headroom_bits": (min(headroom) if headroom else 0.0, "bits"),
        "exactmath.context.misses": (context_misses, "count"),
        "cli.output_bytes": (output_bytes, "bytes"),
        # The wrapped layers' busy time plus cli.run's self time: everything
        # below the root cli.main span, whose self time is left out.
        "trace.covered_share": (sum(own[s.id] for s in spans if s.name != "cli.main") / wall, "ratio"),
    })
    return values


def traced(cli, workload, rng, seconds, references):
    call_cli(cli, WARMUP)
    tracer = Tracer()
    targets = _trace_targets()
    plain_walls, traced_walls, per_pass = [], [], []
    failures, attempted, spans_out = [], 0, []
    started = time.perf_counter()
    while not traced_walls or time.perf_counter() - started < seconds:
        wall, _, outcomes = run_pass(cli, workload.shuffled(rng))
        plain_walls.append(wall)
        bad, _, _, _ = check_pass(outcomes, references)
        failures += bad
        attempted += len(outcomes)

        tracer.reset()
        tracer.install("siegelcm", targets)
        try:
            wall, _, outcomes = run_pass(cli, workload.shuffled(rng), tracer)
        finally:
            tracer.restore()
        traced_walls.append(wall)
        bad, _, _, output_bytes = check_pass(outcomes, references)
        failures += bad
        attempted += len(outcomes)
        misses = cli.context.cache_info().misses
        per_pass.append(layer_metrics(tracer.spans, wall, misses, output_bytes))
        spans_out.append(tracer.spans)

    metrics = {
        name: _metric(statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    samples = {"traced_walls": traced_walls, "untraced_walls": plain_walls}
    return metrics, attempted, failures, samples, spans_out


# --- entry point ----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    cli = load_cli()
    references = json.loads(REFERENCES.read_text())
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    env = environment()
    measure = traced if args.trace else end_to_end
    metrics, attempted, failures, samples, spans = measure(cli, workload, rng, args.seconds, references)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "samples": samples,
        "failed_ratio": len(failures) / attempted, "failures": failures,
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w") as fh:
            for number, pass_spans in enumerate(spans):
                for s in pass_spans:
                    fh.write(json.dumps({"pass": number, **vars(s)}) + "\n")

    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(env))
    print("samples " + json.dumps(samples))
    for message in failures[:10]:
        print(f"FAILED {message}")
    print(f"failed_ratio = {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
