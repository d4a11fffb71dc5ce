"""The benchmark's workloads: fixed CLI request lists, and why each exists.

A request is the argv list the ``siegelcm`` command receives.  Every
request runs with default flags (``--threads 1``, guard 64, JSON output);
only ``--precision`` is set where a workload needs more than 256 bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GRID_D = (-7, -8, -11, -15, -19, -20, -24)
GRID_N = (2, 3, 4, 5, 6)

# The acceptance grid's frozen set of pairs whose minimal polynomial snaps
# at 256 bits (tests/test_acceptance.py).  The other grid pairs do not
# snap there, so they send normal-basis instead and no request fails.
SNAP_AT_256 = frozenset({
    (-7, 2), (-7, 4), (-7, 6),
    (-8, 3), (-8, 6),
    (-11, 3), (-11, 5), (-11, 6),
    (-15, 2), (-15, 4), (-15, 6),
    (-19, 5), (-19, 6),
    (-20, 3), (-20, 6),
    (-24, 6),
})

# One untimed request before timing starts: it runs every stage, from the
# forms to the snap, so lazy imports and the context() cache are warm.
WARMUP = ("minpoly", "--disc", "-20", "-N", "6")


def request(subcommand: str, d: int, N: int | None = None, precision: int | None = None) -> tuple[str, ...]:
    argv = [subcommand, "--disc", str(d)]
    if N is not None:
        argv += ["-N", str(N)]
    if precision is not None:
        argv += ["--precision", str(precision)]
    return tuple(argv)


def request_precision(argv) -> int:
    """The working precision a request asks for (256 when not given)."""
    argv = list(argv)
    return int(argv[argv.index("--precision") + 1]) if "--precision" in argv else 256


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: tuple[tuple[str, ...], ...]

    def shuffled(self, rng: random.Random) -> list[tuple[str, ...]]:
        order = list(self.requests)
        rng.shuffle(order)
        return order


def _grid_requests():
    for d in GRID_D:
        for N in GRID_N:
            yield request("forms", d)
            yield request("invariant", d, N)
            yield request("minpoly" if (d, N) in SNAP_AT_256 else "normal-basis", d, N)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-256",
            why=(
                "105 tiny requests (degree <= 16, M ~ 20-30) over the 35-pair "
                "acceptance grid at 256 bits: per-request fixed cost dominates, "
                "so added per-call or per-form set-up shows here"
            ),
            requests=tuple(_grid_requests()),
        ),
        Workload(
            name="wide-256",
            why=(
                "normal-basis for (-1031, 7) and (-71, 30): 1064 conjugates at "
                "256 bits, ~90% in siegel_power and no expansion, so kernel and "
                "per-form sharing gains show and expansion changes must not"
            ),
            requests=(
                request("normal-basis", -1031, 7),
                request("normal-basis", -71, 30),
            ),
        ),
        Workload(
            name="deep-minpoly",
            why=(
                "minpoly at 512-1408 bits, each the least precision tried that "
                "snaps: big-integer arithmetic dominates, expansion and snapping "
                "weigh ~10%, and the small snap headroom exposes lost accuracy"
            ),
            requests=(
                request("minpoly", -95, 12, 512),
                request("minpoly", -191, 12, 1024),
                request("minpoly", -311, 12, 1408),
            ),
        ),
    )
}
