"""One measured run of a workload in a fresh interpreter.

Usage: python3 bench/child.py WORKLOAD SEED OUTDIR RESULT [--trace]
       python3 bench/child.py --env

Times the import of ``fockwalk.cli``, then calls ``fockwalk.cli.main(argv)``
for each of the workload's invocations in order, with outputs written under
OUTDIR; a fixed reference computation (``probe``) is timed on one core and
on both cores just before and just after the invocations, to measure the
host's speed.  With --trace, every public function of the six modules is
wrapped (see ``spans.py``) and the spans, worker spans included, go into
RESULT.
RESULT is a JSON file with the timings, resource usage and per-invocation
exit codes; the parent (``run.py``) checks the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def probe() -> tuple[float, float]:
    """Run a fixed reference computation; returns its (wall, cpu) seconds.

    The host's speed drifts: on a shared machine each core in turn runs up
    to twice as slow, for seconds to minutes.  Timed just before and just
    after the workload, the probe measures that speed, and the parent scales
    the sample's times by it.  It uses numpy only, never fockwalk, so no
    change to the program moves it; do not change it, or earlier results
    stop being comparable.
    """
    import numpy as np

    wall0, cpu0 = time.perf_counter(), time.process_time()
    n = 201
    sites = np.arange(n, dtype=float)
    for _ in range(3):
        up, dn = np.zeros(n, complex), np.zeros(n, complex)
        up[n // 2] = 1.0
        records = []
        for k in range(400):
            c, s = math.cos(0.3 + k * 1e-4), math.sin(0.3 + k * 1e-4)
            up, dn = c * up - s * dn, s * up + c * dn
            up, dn = np.roll(up, -1), np.roll(dn, 1)
            p = up.real ** 2 + up.imag ** 2 + dn.real ** 2 + dn.imag ** 2
            norm = float(p.sum())
            records.append({"k": k, "norm": norm, "mean": float(sites @ p) / norm})
        x = np.linspace(0.0, 1.0, 20000)
        for _ in range(10):
            x = np.sin(x) * 0.5 + np.cos(x) * 0.25
    return time.perf_counter() - wall0, time.process_time() - cpu0


def probe_both_cores() -> tuple[float, float]:
    """``probe`` in this process and in a forked copy at once; mean (wall, cpu).

    One copy per core of the 2-core host, for the speed of work that keeps
    both cores busy, such as the default pool and BLAS.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            os.write(write, json.dumps(probe()).encode())
        finally:
            os._exit(0)
    os.close(write)
    try:
        mine = probe()
        with os.fdopen(read, "rb") as fh:
            other = json.loads(fh.read())
    finally:
        os.waitpid(pid, 0)
    return (mine[0] + other[0]) / 2, (mine[1] + other[1]) / 2


def run_invocation(main, argv: list[str]) -> tuple[object, str]:
    """Call the CLI entry point; returns (exit code or error text, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any escape is a failed invocation
        code = f"raised:{type(exc).__name__}:{exc}"
    return code, buf.getvalue()


def environment() -> dict:
    """Interpreter, numpy and scipy versions and the BLAS each was built with."""
    import fockwalk.cli  # noqa: F401 - also leaves compiled sources behind
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}: {info.get('openblas configuration', '')}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def main() -> int:
    if sys.argv[1] == "--env":
        print(json.dumps(environment()))
        return 0
    workload, seed, outdir, result_path = sys.argv[1:5]
    trace = "--trace" in sys.argv[5:]
    invocations = workloads.invocations(workload, int(seed))

    start = time.perf_counter()
    import fockwalk.cli as cli
    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"fockwalk imported from {cli.__file__}, not from this checkout")

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer(spool=outdir)
        tracer.install()

    os.makedirs(outdir, exist_ok=True)
    probes = [(probe(), probe_both_cores())]
    results = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for inv in invocations:
        argv = [os.path.join(outdir, a) if prev in ("--out", "--dist-out") else a
                for prev, a in zip(("",) + inv.argv, inv.argv)]
        began = time.perf_counter()
        code, stdout = run_invocation(cli.main, argv)
        took = time.perf_counter() - began
        if inv.stdout is not None:
            with open(os.path.join(outdir, inv.stdout.name), "w", encoding="utf-8") as fh:
                fh.write(stdout)
        results.append({"name": inv.name, "code": code, "wall_s": took})
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    probes.append((probe(), probe_both_cores()))

    payload = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "probe_wall_s": [one[0] for one, _ in probes],
        "probe_cpu_s": [one[1] for one, _ in probes],
        "probe_both_wall_s": [both[0] for _, both in probes],
        "probe_both_cpu_s": [both[1] for _, both in probes],
        "invocations": results,
    }
    if tracer is not None:
        payload["root_proc"] = tracer.proc
        payload["spans"] = tracer.collect()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
