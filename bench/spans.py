"""Call spans around the public functions of fockwalk's six modules.

A ``Tracer`` wraps each traced function at every binding a call can go
through: module attributes, names imported into other modules (for example
``quench.chiral_step``) and default argument values (``evolve``'s default
``step``).  Each call records one span ``(id, parent, name, start_ns, end_ns,
proc, note)`` in memory; ``proc`` names the process (the pid for the traced
process itself) and ``note`` carries a per-call count where a metric needs
one.  Pool workers forked from the traced process inherit the wrappers and
write their spans to one file per process when they exit; ``collect`` merges
them.

``self_times`` and ``layer_metrics`` turn a span list into per-layer numbers;
they need no fockwalk import, so the parent process and the tests use them
directly.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import math
import os
import time
from multiprocessing import util as mp_util

# (module, function, span name); several functions may share a span name.
TRACED = [
    ("lattice", "floquet_step", "lattice.step"),
    ("lattice", "chiral_step", "lattice.step"),
    ("lattice", "evolve", "lattice.evolve"),
    ("lattice", "build_step_matrix", "lattice.build_step_matrix"),
    ("momentum", "quasienergy_gaps", "momentum.quasienergy_gaps"),
    ("momentum", "winding_number", "momentum.winding_number"),
    ("momentum", "predict_bound_states", "momentum.predict_bound_states"),
    ("momentum", "phase_diagram", "momentum.phase_diagram"),
    ("analysis", "observable_record", "analysis.observable_record"),
    ("analysis", "edge_eigenmodes", "analysis.edge_eigenmodes"),
    ("quench", "run_quench", "quench.run_quench"),
    ("quench", "landau_zener_fit", "quench.landau_zener_fit"),
    ("quench", "stabilized_edge_population", "quench.stabilized_edge_population"),
    ("pulse", "verify_cycle", "pulse.verify_cycle"),
    ("pulse", "compile_six_step_cycle", "pulse.compile_six_step_cycle"),
    ("pulse", "adiabaticity_margin", "pulse.adiabaticity_margin"),
    ("cli", "main", "cli.main"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "_parallel_map", "cli.pool"),
    ("cli", "_sweep_point", "cli.task"),
    ("cli", "_diagram_point", "cli.task"),
]
MODULES = ["lattice", "momentum", "analysis", "quench", "pulse", "cli"]
SUBCOMMANDS = ["walk", "sweep", "quench", "ramp", "eigen", "pulse-verify", "phase-diagram"]


def _site_count(call, result):
    state = call.args[0] if call.args else call.kwargs["state"]
    return state.n_max + 1


def _point_count(call, result):
    return len(call.arg("thetas1")) * len(call.arg("thetas2"))


def _mode_count(call, result):
    return len(result) if result is not None else 0


def _fallback(call, result):
    return 1 if result is None else 0


def _integrator_steps(call, result):
    config = call.arg("config")
    return call.arg("n_levels") * max(1, int(math.ceil(config.tau / config.integrator_step)))


def _subcommand(call, result):
    argv = call.arg("argv")
    return argv[0] if argv else ""


def _pool_size(call, result):
    """Workers the pool ran with, 0 when the map ran in-process."""
    workers = call.arg("workers") or os.cpu_count() or 1
    return workers if workers > 1 and len(call.arg("tasks")) > 1 else 0


class _Call:
    """Arguments of one traced call; binds them to names only when asked."""

    __slots__ = ("signature", "args", "kwargs")

    def __init__(self, signature, args, kwargs):
        self.signature, self.args, self.kwargs = signature, args, kwargs

    def arg(self, name):
        bound = self.signature.bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


NOTES = {
    "lattice.step": _site_count,
    "momentum.phase_diagram": _point_count,
    "analysis.edge_eigenmodes": _mode_count,
    "quench.stabilized_edge_population": _fallback,
    "pulse.verify_cycle": _integrator_steps,
    "cli.main": _subcommand,
    "cli.pool": _pool_size,
}


class Tracer:
    """Span recorder for one traced run; ``spool`` receives worker span files."""

    def __init__(self, spool: str):
        self.spool = spool
        self.proc = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.count = 0
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # A pool worker keeps the open stack, so its spans point at the
        # parent's pool span, and starts with an empty span list.  Its
        # process key adds random bits to the pid, which the next pool may
        # reuse.
        self.proc = (os.getpid() << 24) | int.from_bytes(os.urandom(3), "big")
        self.spans = []
        self.count = 0
        mp_util.Finalize(self, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = os.path.join(self.spool, f"spans-{self.proc}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            span_id = (self.proc << 32) | self.count
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                value = None
                if note is not None:
                    value = note(_Call(signature, args, kwargs), result)
                self.spans.append((span_id, parent, name, start, end, self.proc, value))

        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions in fockwalk's modules."""
        modules = [importlib.import_module("fockwalk")]
        modules += [importlib.import_module(f"fockwalk.{m}") for m in MODULES]
        wrappers = {}
        for module, func, name in TRACED:
            original = getattr(importlib.import_module(f"fockwalk.{module}"), func)
            wrappers[original] = self.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for module in modules:
            for value in vars(module).values():
                fn = inspect.unwrap(value) if inspect.isfunction(value) else None
                if fn is not None and fn.__defaults__:
                    fn.__defaults__ = tuple(wrappers.get(d, d) if callable(d) else d
                                            for d in fn.__defaults__)

    def collect(self) -> list[tuple]:
        """This process's spans plus every worker span file in the spool."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool, "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                spans.extend(tuple(s) for s in json.load(fh))
            os.remove(path)
        return spans


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time (ns) of each span: its duration minus the part of it that
    its child spans in the same process cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    proc_of = {s[0]: s[5] for s in spans}
    for _, parent, _, start, end, proc, _ in spans:
        if parent is not None and proc_of.get(parent) == proc:
            children.setdefault(parent, []).append((start, end))
    return {s[0]: (s[4] - s[3]) - _covered(children.get(s[0], []), s[3], s[4])
            for s in spans}


def layer_metrics(spans: list[tuple], root_proc: int) -> dict[str, float]:
    """Per-layer numbers of one traced run (times in s, counts as numbers).

    A layer that did not run reports 0 calls and 0 s; ratios without a base
    report 0.
    """
    spans = [tuple(s) for s in spans]
    self_ns = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def named(name):
        return [s for s in spans if s[2] == name]

    def calls(name):
        return float(len(named(name)))

    def self_s(name):
        return sum(self_ns[s[0]] for s in named(name)) / 1e9

    def notes(name):
        return sum(s[6] for s in named(name))

    def under(span, ancestor):
        parent = span[1]
        while parent is not None and parent in by_id:
            if by_id[parent][2] == ancestor:
                return True
            parent = by_id[parent][1]
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["lattice.step.calls"] = calls("lattice.step")
    m["lattice.step.self_s"] = self_s("lattice.step")
    m["lattice.site_steps"] = float(notes("lattice.step"))
    m["lattice.step.ns_per_site"] = ratio(m["lattice.step.self_s"] * 1e9,
                                          m["lattice.site_steps"])
    m["lattice.evolve.self_s"] = self_s("lattice.evolve")
    m["lattice.build_step_matrix.self_s"] = self_s("lattice.build_step_matrix")

    for fn in ("quasienergy_gaps", "winding_number"):
        m[f"momentum.{fn}.calls"] = calls(f"momentum.{fn}")
        m[f"momentum.{fn}.self_s"] = self_s(f"momentum.{fn}")
    m["momentum.predict_bound_states.self_s"] = self_s("momentum.predict_bound_states")
    m["momentum.phase_diagram.self_s"] = self_s("momentum.phase_diagram")
    diagram_gaps = sum(1 for s in named("momentum.quasienergy_gaps")
                       if under(s, "momentum.phase_diagram"))
    m["momentum.gaps_per_point"] = ratio(diagram_gaps, notes("momentum.phase_diagram"))

    for fn in ("observable_record", "edge_eigenmodes"):
        m[f"analysis.{fn}.calls"] = calls(f"analysis.{fn}")
        m[f"analysis.{fn}.self_s"] = self_s(f"analysis.{fn}")
    m["analysis.edge_modes_found"] = float(notes("analysis.edge_eigenmodes"))

    m["quench.run_quench.calls"] = calls("quench.run_quench")
    m["quench.run_quench.self_s"] = self_s("quench.run_quench")
    m["quench.landau_zener_fit.self_s"] = self_s("quench.landau_zener_fit")
    m["quench.plateau_fallbacks"] = ratio(notes("quench.stabilized_edge_population"),
                                          calls("quench.stabilized_edge_population"))

    for fn in ("verify_cycle", "compile_six_step_cycle", "adiabaticity_margin"):
        m[f"pulse.{fn}.self_s"] = self_s(f"pulse.{fn}")
    m["pulse.integrator_steps"] = float(notes("pulse.verify_cycle"))

    for command in SUBCOMMANDS:
        m[f"cli.main.{command}.self_s"] = sum(
            self_ns[s[0]] for s in named("cli.main") if s[6] == command) / 1e9
    m["cli.write_csv.self_s"] = self_s("cli.write_csv")
    pools = [s for s in named("cli.pool") if s[6] and s[5] == root_proc]
    wait_ns = sum(s[4] - s[3] for s in pools)
    pool_ids = {s[0] for s in pools}
    busy_ns = sum(s[4] - s[3] for s in named("cli.task")
                  if s[5] != root_proc and s[1] in pool_ids)
    m["cli.pool.wait_s"] = wait_ns / 1e9
    m["cli.pool.busy_ratio"] = ratio(busy_ns, sum((s[4] - s[3]) * s[6] for s in pools))
    return m


def scipy_import_s(importtime_log: str) -> float:
    """Seconds spent in scipy modules, summed from ``-X importtime`` self times."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        if parts[2].strip().split(".")[0] == "scipy":
            total_us += int(parts[0])
    return total_us / 1e6
