"""Tests of the benchmark's own code.  Run with: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def in_fresh_interpreter(code: str) -> dict:
    """Run ``code`` with src/ and bench/ importable; it prints one JSON object."""
    prelude = (f"import sys, json; sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, "
               f"{BENCH!r}]\n")
    out = subprocess.run([sys.executable, "-c", prelude + code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_self_time_subtracts_union_of_same_process_children():
    spans_ = [
        (1, None, "a", 0, 100, 7, None),
        (2, 1, "b", 10, 40, 7, None),
        (3, 1, "c", 30, 60, 7, None),   # overlaps b: the union counts once
        (4, 2, "d", 15, 20, 7, None),
        (5, 1, "w", 0, 90, 8, None),    # child in another process: not subtracted
    ]
    assert spans.self_times(spans_) == {1: 50, 2: 25, 3: 30, 4: 5, 5: 90}


def test_wrappers_count_imported_names_and_default_step(tmp_path):
    result = in_fresh_interpreter(f"""
import spans
from fockwalk import lattice, quench
tracer = spans.Tracer(spool={str(tmp_path)!r})
tracer.install()
p = quench.QuenchProtocol(initial=lattice.BulkParams(1.0, 0.5),
                          final=lattice.BulkParams(0.5, 0.5), n0=2, nq=1, total_steps=5)
quench.run_quench(p)
lattice.evolve(lattice.initial_state(10), lattice.BulkParams(1.0, 0.5), lattice.PHI_ZERO, 3)
names = [s[2] for s in tracer.collect()]
print(json.dumps({{n: names.count(n) for n in set(names)}}))
""")
    assert result["lattice.step"] == 5 + 3
    assert result["analysis.observable_record"] == 6
    assert result["quench.run_quench"] == 1
    assert result["lattice.evolve"] == 1


def test_worker_spans_from_a_two_worker_pool_are_collected(tmp_path):
    result = in_fresh_interpreter(f"""
import os, spans
from fockwalk import cli
tracer = spans.Tracer(spool={str(tmp_path)!r})
tracer.install()
tasks = [(i, 0.3 * i + 0.2, 1.1, 256, 0.01) for i in range(4)]
cli._parallel_map(cli._diagram_point, tasks, 2)
collected = tracer.collect()
print(json.dumps({{"spans": collected, "root": tracer.proc}}))
""")
    collected, root = [tuple(s) for s in result["spans"]], result["root"]
    workers = {s[5] for s in collected if s[5] != root}
    assert len(workers) == 2
    pool = [s for s in collected if s[2] == "cli.pool"]
    tasks = [s for s in collected if s[2] == "cli.task"]
    assert len(pool) == 1 and pool[0][6] == 2
    assert len(tasks) == 4 and all(s[1] == pool[0][0] and s[5] != root for s in tasks)
    m = spans.layer_metrics(collected, root)
    assert m["momentum.gaps_per_point"] > 0
    assert 0 < m["cli.pool.busy_ratio"] <= 1
    assert not list(tmp_path.glob("spans-*.json"))


@pytest.fixture(scope="module")
def protocols_sample(tmp_path_factory):
    """Outputs and payload of one real protocols sample at the reference seed."""
    base = tmp_path_factory.mktemp("sample")
    payload = run.run_child("protocols", workloads.REFERENCE_SEED, str(base / "out"), False)
    return str(base / "out"), payload


def _fake_run(monkeypatch, tmp_path, sample, edit):
    """A Run whose child copies the real sample and then applies ``edit``."""
    template, payload = sample

    def fake_child(workload, seed, outdir, trace):
        shutil.copytree(template, outdir)
        fake = json.loads(json.dumps(payload))
        edit(outdir, fake)
        return fake

    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path))
    r = run.Run("protocols", workloads.REFERENCE_SEED)
    r.sample(trace=False)
    return r


def test_clean_sample_has_no_failures(monkeypatch, tmp_path, protocols_sample):
    r = _fake_run(monkeypatch, tmp_path, protocols_sample, lambda outdir, p: None)
    assert (r.attempted, r.failed) == (46, 0), r.problems


def test_nonzero_exit_raises_fail_ratio(monkeypatch, tmp_path, protocols_sample):
    def edit(outdir, payload):
        payload["invocations"][3]["code"] = 3

    r = _fake_run(monkeypatch, tmp_path, protocols_sample, edit)
    assert (r.attempted, r.failed) == (46, 1)
    assert "exit 3" in r.problems[0]


def test_reference_mismatch_raises_fail_ratio(monkeypatch, tmp_path, protocols_sample):
    def edit(outdir, payload):
        path = os.path.join(outdir, "q-fig6b.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)  # p_edge, tolerance 1e-10
        lines[-1] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    r = _fake_run(monkeypatch, tmp_path, protocols_sample, edit)
    assert (r.attempted, r.failed) == (46, 1)
    assert "column p_edge" in r.problems[0]


def test_float_within_tolerance_passes(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("step,p_edge,sx0,sx1,mean_n,var_n,norm\n0,0.5,nan,1,0,0,1\n")
    ref = check.summarize(str(path), "timeseries")
    path.write_text("step,p_edge,sx0,sx1,mean_n,var_n,norm\n0,0.50000000000001,nan,1,0,0,1\n")
    assert check.compare(str(path), "timeseries", ref) == []
    path.write_text("step,p_edge,sx0,sx1,mean_n,var_n,norm\n1,0.5,nan,1,0,0,1\n")
    assert check.compare(str(path), "timeseries", ref) == ["t.csv: column step differs"]


def test_norm_drift_breaks_the_invariant(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("step,p_edge,sx0,sx1,mean_n,var_n,norm\n0,0.5,nan,1,0,0,1.000001\n")
    assert check.invariants(str(path), "timeseries") == ["t.csv: norm drift 1.000e-06"]


def test_times_scale_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_PROBE_S", 0.05)
    sample = {"wall_s": 2.0, "setup_s": 0.8, "cpu_s": 3.0,
              "probe_wall_s": [0.09, 0.11], "probe_both_wall_s": [0.15, 0.25],
              "probe_cpu_s": [0.2, 0.2], "probe_both_cpu_s": [0.2, 0.2]}
    # CPU over wall is 1.5, so the probe time is halfway between the one-core
    # probe (0.1) and the two-core one (0.2); set-up uses the one-core probe.
    assert run._at_reference_speed(sample, "wall_s") == pytest.approx(2.0 / 3.0)
    assert run._at_reference_speed(sample, "setup_s") == pytest.approx(0.4)
    assert run._at_reference_speed(sample, "cpu_s") == pytest.approx(0.75)
    sample["cpu_s"] = 1.9  # one core busy: the one-core probe alone
    assert run._at_reference_speed(sample, "wall_s") == pytest.approx(1.0)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in run.PER_LAYER]


def test_every_seed_gives_the_same_invocation_shape():
    for name in workloads.WORKLOADS:
        ref = workloads.invocations(name, workloads.REFERENCE_SEED)
        for seed in range(1, 30):
            other = workloads.invocations(name, seed)
            assert [i.name for i in other] == [i.name for i in ref]
            assert other == workloads.invocations(name, seed)
