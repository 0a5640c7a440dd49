"""Benchmark workloads: the CLI invocations each workload runs, made from a seed.

Seed 0 is the reference seed: it gives exactly the points whose outputs are
stored in ``references.json``.  Any other seed offsets the phase-diagram grid
and draws the sweep, walk and eigen angles, keeping every point away from a
gap closure so that no invocation can fail for numerical reasons.

This module uses the standard library only: the child interpreter imports it
before ``fockwalk.cli``, whose import time it measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

REFERENCE_SEED = 0
CATALOG = [
    "fig6b", "fig6c", "fig6d-no-kick", "fig6d-kick", "fig6e",
    "fig7a", "fig7b", "fig7c", "fig7d",
    "fig-noquench-00", "fig-noquench-10", "fig-noquench-01", "fig-noquench-11",
    "fig8-vquench-10", "fig8-vquench-01", "fig8-vquench-11", "fig8-vquench-00",
    "fig9-reverse",
]
RAMP_SCENARIOS = ["fig6c", "fig9-reverse"]
RAMP_NQ = list(range(1, 49))
DIAGRAM_GRID = 32
# Smallest gap (radians) a drawn walk or eigen point may have; closer
# points are redrawn.
MIN_DRAWN_GAP = 0.05


@dataclass(frozen=True)
class Output:
    """One file an invocation writes: its name and its table kind."""

    name: str
    kind: str  # timeseries, distribution, diagram, sweep, ramp, eigen, pulse, ramp-summary


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[Output, ...]
    stdout: Output | None = None  # stdout captured as an output file

    @property
    def files(self) -> list[Output]:
        """Every output to check: the files written and the captured stdout."""
        return list(self.outputs) + ([self.stdout] if self.stdout else [])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    describe: str


WORKLOADS = {
    "scan": Workload(
        "scan",
        "many small independent parameter points on the default 2-worker pool; "
        "~93% of CPU in momentum (gaps, windings), ~7% short lattice walks",
        "phase-diagram at defaults (grid=32, n_k=1024); sweep over a 16x16 "
        "grid of odd multiples of pi/16, phi=0, steps=100; no --workers",
    ),
    "protocols": Workload(
        "protocols",
        "132 short single-process trajectories with per-step observables: "
        "lattice.chiral_step, analysis.observable_record and the quench loop",
        "18 catalog quenches at defaults and again with nq=10 total=300; ramp "
        "fig6c and fig9-reverse with nq_list=1..48; 8 walks theta1=pi/2, "
        "theta2 odd multiples of pi/8, steps=200",
    ),
    "large": Workload(
        "large",
        "one large problem per layer: a 4000-step walk, the dense n_max=256 "
        "edge oracle and the RK4 passage of pulse-verify",
        "walk steps=4000 --dist-out; eigen n_max=256 at (pi/2, 0) and "
        "(-pi/8, pi/4); pulse-verify at defaults (tau=100, dt=0.004, 11 levels)",
    ),
}


def min_gap(theta1: float, theta2: float) -> float:
    """Smaller of the two quasi-energy gaps, from the closed-form band edges.

    cos E(k) = c1 c2 cos k - s1 s2 spans [-|c1 c2| - s1 s2, |c1 c2| - s1 s2],
    so the gap at 0 is arccos of the upper edge and the gap at pi is pi minus
    arccos of the lower edge.
    """
    c1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
    c2, s2 = math.cos(theta2 / 2), math.sin(theta2 / 2)
    upper = min(1.0, abs(c1 * c2) - s1 * s2)
    lower = max(-1.0, -abs(c1 * c2) - s1 * s2)
    return min(math.acos(upper), math.pi - math.acos(lower))


def _angle(value: float) -> str:
    return format(value, ".17g")


def _odd_multiples(count: int, denominator: int) -> list[str]:
    """Pi literals of the ``count`` odd multiples of pi/denominator centred on 0."""
    return [f"{k}pi/{denominator}" for k in range(-count + 1, count, 2)]


def _draw_pair(rng: random.Random) -> tuple[float, float]:
    while True:
        t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        if min_gap(t1, t2) >= MIN_DRAWN_GAP:
            return t1, t2


def _sweep_axis(rng: random.Random) -> list[str]:
    """16 of the 32 odd multiples of pi/32 in (-pi, pi), sorted.

    Sums and differences of two such angles are multiples of pi/16, so each
    sweep point either sits exactly on a gap closure, which the sweep reports
    as a transition, or keeps a gap of at least pi/32.
    """
    ks = sorted(rng.sample(range(-31, 32, 2), 16))
    return [f"{k}pi/32" for k in ks]


def _scan(seed: int) -> list[Invocation]:
    diagram = ["phase-diagram"]
    if seed == REFERENCE_SEED:
        t1s = t2s = _odd_multiples(16, 16)
    else:
        rng = random.Random(seed)
        # Whole cells plus pi/32 keep theta1 + theta2 an odd multiple of
        # pi/16 away from the closure lines, so no diagram point comes within
        # pi/32 of a closure; theta1 - theta2 does not depend on the shift.
        cell = 4 * math.pi / DIAGRAM_GRID
        shift = rng.randint(-3, 3) * cell + rng.choice((-1, 1)) * math.pi / 32
        diagram += [f"lo={_angle(-2 * math.pi + shift)}",
                    f"hi={_angle(2 * math.pi + shift)}"]
        t1s, t2s = _sweep_axis(rng), _sweep_axis(rng)
    return [
        Invocation("phase-diagram", tuple(diagram + ["--out", "diagram.csv"]),
                   (Output("diagram.csv", "diagram"),)),
        Invocation("sweep", ("sweep", "theta1=" + ",".join(t1s),
                             "theta2=" + ",".join(t2s), "phi=0", "steps=100",
                             "--out", "sweep.csv"),
                   (Output("sweep.csv", "sweep"),)),
    ]


def _protocols(seed: int) -> list[Invocation]:
    out = []
    for name in CATALOG:
        out.append(Invocation(f"quench-{name}", ("quench", f"scenario={name}",
                                                 "--out", f"q-{name}.csv"),
                              (Output(f"q-{name}.csv", "timeseries"),)))
    for name in CATALOG:
        out.append(Invocation(f"quench-slow-{name}",
                              ("quench", f"scenario={name}", "nq=10", "total=300",
                               "--out", f"qs-{name}.csv"),
                              (Output(f"qs-{name}.csv", "timeseries"),)))
    nq_list = ",".join(str(n) for n in RAMP_NQ)
    for name in RAMP_SCENARIOS:
        out.append(Invocation(f"ramp-{name}", ("ramp", f"scenario={name}",
                                               f"nq_list={nq_list}",
                                               "--out", f"ramp-{name}.csv"),
                              (Output(f"ramp-{name}.csv", "ramp"),),
                              stdout=Output(f"ramp-{name}.json", "ramp-summary")))
    if seed == REFERENCE_SEED:
        angles = [("pi/2", t2) for t2 in _odd_multiples(8, 8)]
    else:
        rng = random.Random(seed)
        angles = [tuple(_angle(v) for v in _draw_pair(rng)) for _ in range(8)]
    for i, (t1, t2) in enumerate(angles):
        out.append(Invocation(f"walk-{i}", ("walk", f"theta1={t1}", f"theta2={t2}",
                                            "phi=0", "steps=200",
                                            "--out", f"walk-{i}.csv"),
                              (Output(f"walk-{i}.csv", "timeseries"),)))
    return out


def _large(seed: int) -> list[Invocation]:
    if seed == REFERENCE_SEED:
        walk, eig = ("pi/2", "0"), [("pi/2", "0"), ("-pi/8", "pi/4")]
    else:
        rng = random.Random(seed)
        walk, *eig = [tuple(_angle(v) for v in _draw_pair(rng)) for _ in range(3)]
    out = [Invocation("walk-long", ("walk", f"theta1={walk[0]}", f"theta2={walk[1]}",
                                    "phi=0", "steps=4000", "--out", "walk.csv",
                                    "--dist-out", "dist.csv"),
                      (Output("walk.csv", "timeseries"),
                       Output("dist.csv", "distribution")))]
    for i, (t1, t2) in enumerate(eig):
        out.append(Invocation(f"eigen-{i}", ("eigen", f"theta1={t1}", f"theta2={t2}",
                                             "phi=0", "n_max=256",
                                             "--out", f"eigen-{i}.csv"),
                              (Output(f"eigen-{i}.csv", "eigen"),)))
    out.append(Invocation("pulse-verify", ("pulse-verify", "--out", "pulse.json"),
                          (Output("pulse.json", "pulse"),)))
    return out


_BUILDERS = {"scan": _scan, "protocols": _protocols, "large": _large}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations, in run order, for ``seed``."""
    return _BUILDERS[workload](seed)
