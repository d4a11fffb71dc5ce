"""Summarise benchmark run records, or compare two sets of them.

    python3 bench/compare.py .bench_out/                  # one set
    python3 bench/compare.py bench/baseline.json .bench_out/   # base, new
    python3 bench/compare.py --save bench/baseline.json .bench_out/

A source is a run record written by run.py, a directory of them, or a
file saved with ``--save`` (``{"runs": [...]}``).  For each workload and
metric it prints the median over runs and the spread, the distance
between the first and third quartiles as a share of the median.  With
two sources it also prints the change of the median.  Records whose
mpmath backends differ are refused: a gmpy2 backend appearing on one
side would look like a large gain that no code change made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(source: str) -> list[dict]:
    path = Path(source)
    if path.is_dir():
        return [json.loads(p.read_text()) for p in sorted(path.glob("*-trace[01].json"))]
    doc = json.loads(path.read_text())
    return doc["runs"] if "runs" in doc else [doc]


def summary(runs: list[dict]) -> dict:
    """(workload, trace, metric) -> (median, spread, unit, run count)."""
    values: dict[tuple, list[float]] = {}
    units = {}
    for run in runs:
        for name, m in run["metrics"].items():
            key = (run["workload"], run["trace"], name)
            values.setdefault(key, []).append(m["value"])
            units[key] = m["unit"]
    out = {}
    for key, vs in values.items():
        median = statistics.median(vs)
        spread = 0.0
        if len(vs) > 1 and median:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(median)
        out[key] = (median, spread, units[key], len(vs))
    return out


def backends(runs: list[dict]) -> set:
    return {(r["env"]["backend"], r["env"]["gmpy2"]) for r in runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sources", nargs="+", help="base [new]")
    parser.add_argument("--save", help="write the runs of the one source here")
    args = parser.parse_args(argv)
    if len(args.sources) > 2:
        parser.error("give one or two sources")
    sides = [load_runs(s) for s in args.sources]
    found = set().union(*(backends(runs) for runs in sides))
    if len(found) > 1:
        print(f"error: runs used different mpmath backends {sorted(found)}; not comparing", file=sys.stderr)
        return 2
    if args.save:
        Path(args.save).write_text(json.dumps({"runs": sides[0]}, indent=1) + "\n")
        return 0
    base = summary(sides[0])
    new = summary(sides[1]) if len(sides) == 2 else None
    for key in sorted(base):
        workload, trace, name = key
        median, spread, unit, n = base[key]
        line = f"{workload:13s} t{trace} {name:36s} {median:12.6g} {unit:6s} spread {spread:6.1%} n={n}"
        if new is not None and key in new:
            other = new[key][0]
            change = (other - median) / abs(median) if median else 0.0
            line += f"  -> {other:12.6g} ({change:+.1%}, spread {new[key][1]:.1%} n={new[key][3]})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
