"""fockwalk benchmark: the CLI subcommands on fixed workloads, closed loop, one client.

    python3 bench/run.py --workload scan --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --all            # every workload, untraced and traced,
                                          # then the metric tables

Each sample is a fresh interpreter (``child.py``) that imports
``fockwalk.cli`` from ``src/`` and calls ``fockwalk.cli.main(argv)`` for each
of the workload's invocations in order (see ``workloads.py``).  Samples repeat
until ``--seconds`` is spent (at least MIN_SAMPLES of them).  Every metric is
the median over samples.  The end-to-end times ``wall_s``, ``setup_s`` and
``cpu_s`` are given at the reference host speed: each sample also times a
fixed reference computation on one core and on both (``child.probe``), and
its times are scaled by REFERENCE_PROBE_S over the probe's time (see
``_at_reference_speed``).  The per-layer metrics ``untraced.wall_s`` and
``probe_s`` give the raw wall time and the probe's time.  Every output is
checked: against the compact
references in ``references.json`` at the reference seed 0, and against
invariants at any seed; identical invocations must also give identical bytes
in every sample.  An invocation fails if it exits non-zero, raises, writes an
``error:`` row or fails a check.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced sample with a traced one (``spans.py``), requires their outputs to
be byte-identical, and reports the per-layer metrics of the traced samples
beside both samples' wall time, so the tracing overhead shows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed / attempted is
the run's fail ratio.  The line before it records the environment.
``--record`` rewrites ``references.json`` from the current source; it is
meant for the commit that defines the references.  The benchmark's own tests
run with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3
# The probe's time on an idle core of the 2-vCPU x86-64 host the benchmark was
# defined on; it only sets the scale of the end-to-end times.
REFERENCE_PROBE_S = 0.05
CHILD_TIMEOUT_S = 150
REFERENCES = os.path.join(BENCH, "references.json")
SCRATCH = os.path.join(ROOT, ".bench_out")

# name, unit; the bounds live in BENCHMARK.json.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

# name, unit, better, the end-to-end metric it should move and where.
PER_LAYER = [
    ("lattice.step.calls", "count", "lower", "wall_s on protocols and large; small share on scan"),
    ("lattice.step.self_s", "s", "lower", "wall_s on protocols and large (walk); small share on scan"),
    ("lattice.site_steps", "count", "lower", "exact work count; wall_s on protocols and large"),
    ("lattice.step.ns_per_site", "ns", "lower", "wall_s on protocols and large (walk)"),
    ("lattice.evolve.self_s", "s", "lower", "wall_s on protocols and large (walk)"),
    ("lattice.build_step_matrix.self_s", "s", "lower", "wall_s on large (oracle)"),
    ("momentum.quasienergy_gaps.calls", "count", "lower", "wall_s and cpu_s on scan"),
    ("momentum.quasienergy_gaps.self_s", "s", "lower", "wall_s and cpu_s on scan"),
    ("momentum.winding_number.calls", "count", "lower", "wall_s and cpu_s on scan"),
    ("momentum.winding_number.self_s", "s", "lower", "wall_s and cpu_s on scan"),
    ("momentum.predict_bound_states.self_s", "s", "lower", "wall_s and cpu_s on scan"),
    ("momentum.phase_diagram.self_s", "s", "lower", "wall_s and cpu_s on scan"),
    ("momentum.gaps_per_point", "calls/point", "lower", "wall_s and cpu_s on scan; 2.75 at seed 0"),
    ("analysis.observable_record.calls", "count", "lower", "wall_s on protocols"),
    ("analysis.observable_record.self_s", "s", "lower", "wall_s on protocols"),
    ("analysis.edge_eigenmodes.calls", "count", "lower", "wall_s and cpu_s on large"),
    ("analysis.edge_eigenmodes.self_s", "s", "lower", "wall_s and cpu_s on large (oracle)"),
    ("analysis.edge_modes_found", "count", "higher", "exact count; must not change"),
    ("quench.run_quench.calls", "count", "lower", "wall_s on protocols"),
    ("quench.run_quench.self_s", "s", "lower", "wall_s on protocols"),
    ("quench.landau_zener_fit.self_s", "s", "lower", "wall_s on protocols"),
    ("quench.plateau_fallbacks", "ratio", "lower", "fallback share; must not change"),
    ("pulse.verify_cycle.self_s", "s", "lower", "wall_s on large (passage integration)"),
    ("pulse.compile_six_step_cycle.self_s", "s", "lower", "wall_s on large"),
    ("pulse.adiabaticity_margin.self_s", "s", "lower", "wall_s on large"),
    ("pulse.integrator_steps", "count", "lower", "exact work count; wall_s on large"),
    *[(f"cli.main.{c}.self_s", "s", "lower", "wall_s where the command runs")
      for c in spans.SUBCOMMANDS],
    ("cli.write_csv.self_s", "s", "lower", "wall_s on all workloads"),
    ("cli.bytes_written", "B", "lower", "exact; must not change"),
    ("cli.pool.wait_s", "s", "lower", "wall_s on scan (pool)"),
    ("cli.pool.busy_ratio", "ratio", "higher", "wall_s on scan (pool)"),
    ("setup.scipy_s", "s", "lower", "setup_s on all workloads"),
    ("traced.wall_s", "s", "lower", "tracing overhead against untraced.wall_s"),
    ("untraced.wall_s", "s", "lower", "wall_s unscaled, in the same run as traced.wall_s"),
    ("probe_s", "s", "lower", "host speed only: the reference computation's time"),
]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fockwalk", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    """Versions, BLAS build, cores and commit; also compiles the sources once."""
    out = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), "--env"],
                         cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import fockwalk.cli: {out.stderr.strip()[-500:]}")
    env = json.loads(out.stdout)
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu_count"] = os.cpu_count()
    env["start_method"] = multiprocessing.get_start_method()
    # The CLI sizes its default pool by os.cpu_count(); more than the cores
    # this process may use oversubscribes them.
    env["oversubscribed"] = (env["cpu_count"] or 1) > env["nproc"]
    env["git_commit"] = git_commit()
    env["source_sha256"] = source_digest()
    return env


def run_child(workload: str, seed: int, outdir: str, trace: bool) -> dict:
    os.makedirs(os.path.dirname(outdir), exist_ok=True)
    result = outdir + ".json"
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(BENCH, "child.py"), workload, str(seed), outdir, result]
    if trace:
        cmd.append("--trace")
    with open(outdir + ".err", "w", encoding="utf-8") as err:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=err, stderr=err, timeout=CHILD_TIMEOUT_S)
    with open(outdir + ".err", encoding="utf-8") as fh:
        log = fh.read()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} sample exited {proc.returncode}: {log.strip()[-800:]}")
    with open(result, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["log"] = log
    return payload


def output_digests(invs, outdir: str) -> dict:
    digests = {}
    for inv in invs:
        for out in inv.files:
            path = os.path.join(outdir, out.name)
            digests[out.name] = check.sha256(path) if os.path.exists(path) else None
    return digests


class Run:
    """Samples of one workload at one seed, with their checks."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.invs = workloads.invocations(workload, seed)
        self.references = None
        if seed == workloads.REFERENCE_SEED:
            with open(REFERENCES, encoding="utf-8") as fh:
                self.references = json.load(fh)["workloads"][workload]
        self.dir = os.path.join(SCRATCH, f"{workload}-{seed}-{os.getpid()}")
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests = None

    def sample(self, trace: bool, same_as: dict | None = None) -> tuple[dict, dict]:
        """One child run, checked; returns (child payload, output digests)."""
        self.count += 1
        outdir = os.path.join(self.dir, f"s{self.count}")
        child = run_child(self.workload, self.seed, outdir, trace)
        digests = output_digests(self.invs, outdir)
        expected = same_as or self.first_digests
        for inv, res in zip(self.invs, child["invocations"]):
            problems = [] if res["code"] == 0 else [f"exit {res['code']}"]
            problems += check.check_invocation(inv, outdir, self.references)
            if expected is not None:
                problems += [f"{o.name}: bytes differ between samples" for o in inv.files
                             if digests[o.name] != expected[o.name]]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{inv.name}: {'; '.join(problems)}")
        if self.first_digests is None:
            self.first_digests = digests
        child["bytes_written"] = sum(
            os.path.getsize(os.path.join(outdir, name)) for name, d in digests.items() if d)
        shutil.rmtree(outdir, ignore_errors=True)
        return child, digests

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        _remove_scratch()


def _remove_scratch() -> None:
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass  # absent, or another run still uses it


def _median(values) -> float:
    return float(statistics.median(values))


def _at_reference_speed(sample: dict, name: str) -> float:
    """The sample's ``name`` time scaled from the host's speed to the reference.

    A shared host runs for seconds to minutes at a time up to twice as slow
    as at other times, and a median over one run's samples follows that.  The
    probe runs just before and just after the workload, so its time slows
    with the sample's.  A single process runs at the speed of its own core,
    which the one-core probe in the same process measures; a workload that
    keeps both cores busy runs at their mean speed, which the two-core probe
    measures.  The sample's CPU over wall time says how busy the second core
    was, and weights the two probes.  Set-up is single-process.  Wall and
    set-up times are scaled by the probe's wall time, CPU time by its CPU
    time.
    """
    kind = "cpu" if name == "cpu_s" else "wall"
    one = statistics.fmean(sample[f"probe_{kind}_s"])
    both = statistics.fmean(sample[f"probe_both_{kind}_s"])
    second_core = 0.0 if name == "setup_s" else \
        min(max(sample["cpu_s"] / sample["wall_s"] - 1.0, 0.0), 1.0)
    probe_s = one + (both - one) * second_core
    return sample[name] * REFERENCE_PROBE_S / probe_s


def measure(run: Run, seconds: float) -> dict:
    """Untraced samples until ``seconds`` are spent; end-to-end metrics."""
    samples = []
    start = time.perf_counter()
    while True:
        child, _ = run.sample(trace=False)
        samples.append(child)
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_SAMPLES and elapsed * (1 + 1 / len(samples)) > seconds:
            break
    out = {name: _median(_at_reference_speed(s, name) for s in samples)
           for name in ("wall_s", "setup_s", "cpu_s")}
    out["peak_rss_mb"] = _median(s["peak_rss_mb"] for s in samples)
    return out


def measure_traced(run: Run, seconds: float) -> dict:
    """Untraced and traced samples in pairs; per-layer metrics."""
    layers, untraced_wall = [], []
    start = time.perf_counter()
    while True:
        plain, digests = run.sample(trace=False)
        traced, _ = run.sample(trace=True, same_as=digests)
        m = spans.layer_metrics(traced["spans"], traced["root_proc"])
        m["cli.bytes_written"] = float(traced["bytes_written"])
        m["setup.scipy_s"] = spans.scipy_import_s(traced["log"])
        m["traced.wall_s"] = traced["wall_s"]
        m["probe_s"] = statistics.fmean(traced["probe_wall_s"])
        layers.append(m)
        untraced_wall.append(plain["wall_s"])
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(layers)) > seconds:
            break
    out = {name: _median(m[name] for m in layers) for name, *_ in PER_LAYER
           if name != "untraced.wall_s"}
    out["untraced.wall_s"] = _median(untraced_wall)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    try:
        values = measure_traced(run, seconds) if trace else measure(run, seconds)
    finally:
        run.close()
    units = {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def record_references() -> None:
    """Rewrite references.json from the outputs of the current source."""
    data = {"seed": workloads.REFERENCE_SEED, "source_sha256": source_digest(),
            "git_commit": git_commit(), "workloads": {}}
    for workload in workloads.WORKLOADS:
        outdir = os.path.join(SCRATCH, f"record-{workload}-{os.getpid()}")
        try:
            child = run_child(workload, workloads.REFERENCE_SEED, outdir, trace=False)
            codes = {r["name"]: r["code"] for r in child["invocations"] if r["code"] != 0}
            if codes:
                raise RuntimeError(f"{workload}: invocations failed: {codes}")
            entries = {}
            for inv in workloads.invocations(workload, workloads.REFERENCE_SEED):
                for out in inv.files:
                    entries[out.name] = check.summarize(os.path.join(outdir, out.name), out.kind)
            data["workloads"][workload] = entries
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
            for path in (outdir + ".json", outdir + ".err"):
                if os.path.exists(path):
                    os.remove(path)
            _remove_scratch()
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def print_tables(results: dict, env: dict) -> None:
    names = list(results)
    print("\nenvironment: " + json.dumps(env, sort_keys=True))
    print("\nworkloads (closed loop, one client)")
    for w in names:
        spec = workloads.WORKLOADS[w]
        print(f"  {w}: {spec.describe}\n    why: {spec.why}")
    print("\nend-to-end (median of samples, untraced; times at the reference host speed)")
    print(f"{'metric':<16}{'unit':<8}" + "".join(f"{w:>14}" for w in names))
    for name, unit in END_TO_END:
        row = [results[w]["e2e"]["metrics"][name]["value"] for w in names]
        print(f"{name:<16}{unit:<8}" + "".join(f"{v:>14.4f}" for v in row))
    row = [results[w]["e2e"]["failed"] / results[w]["e2e"]["attempted"] for w in names]
    print(f"{'fail_ratio':<16}{'ratio':<8}" + "".join(f"{v:>14.4f}" for v in row))
    print("\nper layer (median of traced samples)")
    print(f"{'metric':<38}{'unit':<12}" + "".join(f"{w:>14}" for w in names) + "  moves")
    for name, unit, _, moves in PER_LAYER:
        row = [results[w]["layers"]["metrics"][name]["value"] for w in names]
        print(f"{name:<38}{unit:<12}" + "".join(f"{v:>14.6g}" for v in row) + f"  {moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, then print tables")
    parser.add_argument("--record", action="store_true",
                        help="rewrite references.json from the current source")
    args = parser.parse_args(argv)
    if not (args.all or args.record or args.workload):
        parser.error("give --workload, --all or --record")
    if not os.path.isfile(os.path.join(ROOT, "src", "fockwalk", "cli.py")):
        print("error: src/fockwalk/cli.py not found; run from a fockwalk checkout",
              file=sys.stderr)
        return 2
    try:
        env = environment()
        print(json.dumps({"env": env}, sort_keys=True), flush=True)
        if env["oversubscribed"]:
            print("warning: os.cpu_count() exceeds the usable cores; the default "
                  "pool oversubscribes them", file=sys.stderr)
        if args.record:
            record_references()
            return 0
        if args.all:
            results = {}
            for workload in workloads.WORKLOADS:
                results[workload] = {
                    "e2e": run_workload(workload, args.seed, args.seconds, False),
                    "layers": run_workload(workload, args.seed, args.seconds, True),
                }
            print_tables(results, env)
            ok = all(r[k]["correct"] for r in results.values() for k in r)
            print(json.dumps({"correct": ok, "results": results}))
            return 0 if ok else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
