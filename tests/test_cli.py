import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fockwalk
from fockwalk import analysis, cli, lattice, momentum
from fockwalk.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    main,
    parse_angle,
    parse_phi,
    read_config_file,
)


@pytest.mark.parametrize("text,expected", [
    ("pi/2", math.pi / 2),
    ("-2pi/3", -2 * math.pi / 3),
    ("3pi/4", 3 * math.pi / 4),
    ("2pi", 2 * math.pi),
    ("-pi", -math.pi),
    ("0", 0.0),
    ("0.25pi", 0.25 * math.pi),
    ("1.5", 1.5),
    ("PI / 8", math.pi / 8),
])
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=1e-15)


def test_parse_angle_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_angle("two pies")


def test_parse_phi_is_exact():
    assert parse_phi("0").phi == 0.0
    assert parse_phi("pi").phi == math.pi
    with pytest.raises(ConfigError):
        parse_phi("pi/2")


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ntheta1 = pi/2\ntheta2=0  # inline\nsteps=12\n")
    pairs = read_config_file(str(cfg))
    assert pairs == {"theta1": "pi/2", "theta2": "0", "steps": "12"}


def test_walk_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["walk", "theta1=pi/2", "theta2=0", "phi=0", "steps=40"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "step,p_edge,sx0,sx1,mean_n,var_n,norm"
    assert len(lines) == 42  # header + steps 0..40


def test_walk_json_mirror_has_identical_values(tmp_path):
    out = tmp_path / "w.csv"
    mirror = tmp_path / "w.json"
    main(["walk", "theta1=pi/2", "theta2=pi/4", "steps=20",
          "--out", str(out), "--json", str(mirror)])
    rows = json.loads(mirror.read_text())
    lines = out.read_text().splitlines()[1:]
    assert len(rows) == len(lines)
    last = lines[-1].split(",")
    assert float(last[1]) == rows[-1]["p_edge"]


def test_walk_distribution_schema(tmp_path):
    out = tmp_path / "w.csv"
    dist = tmp_path / "d.csv"
    main(["walk", "theta1=pi/2", "theta2=0", "steps=20",
          "--out", str(out), "--dist-out", str(dist)])
    lines = dist.read_text().splitlines()
    assert lines[0] == "n,p_n,re_a,im_a,re_b,im_b"
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_walk_rejects_unknown_keys(tmp_path):
    code = main(["walk", "theta1=pi/2", "bogus=1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_empty_config_is_an_error(tmp_path):
    assert main(["walk", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def _reference_sweep_csv(path, t1s, t2s, phi, steps):
    """The sweep CSV built point by point: one evolve with chiral_step each."""
    rows = []
    for index, (t1, t2) in enumerate(itertools.product(t1s, t2s)):
        params = lattice.BulkParams(t1, t2)
        state = lattice.evolve(lattice.initial_state(steps + 2), params, phi, steps,
                               step=lattice.chiral_step)
        try:
            b0, bpi = momentum.predict_bound_states(params, phi)
        except momentum.GapClosed:
            b0 = bpi = -1
        rows.append([index, t1, t2, phi.phi, analysis.edge_population(state), b0, bpi, "ok"])
    cli.write_csv(str(path), cli.SWEEP_HEADER, rows)


def test_sweep_matches_per_point_evolve(tmp_path):
    t1s = [math.pi / 2, -math.pi / 3, 0.3, 2.9] + [k * math.pi / 12 for k in range(-11, 12, 3)]
    t2s = [math.pi / 2, -5 * math.pi / 8, -math.pi / 8, math.pi / 8, 3 * math.pi / 8, 0.0,
           7 * math.pi / 8, -1.1, 2.2, -3.0]
    # at 40 steps one stack of _BLOCK_BYTES holds fewer rows, so a chunk boundary is crossed
    assert len(t1s) * len(t2s) * 2 * (40 + 3) * 8 > lattice._BLOCK_BYTES
    for phi, steps in ((lattice.PHI_ZERO, 40), (lattice.PHI_PI, 40), (lattice.PHI_ZERO, 0)):
        out, ref = tmp_path / "sweep.csv", tmp_path / "ref.csv"
        argv = ["sweep", "theta1=" + ",".join(map(repr, t1s)),
                "theta2=" + ",".join(map(repr, t2s)), f"phi={phi.phi!r}", f"steps={steps}"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        _reference_sweep_csv(ref, t1s, t2s, phi, steps)
        assert out.read_bytes() == ref.read_bytes()
        assert ",-1,-1,ok" in out.read_text().splitlines()[1]  # theta1 = theta2: gap closed


def test_sweep_edge_populations_do_not_depend_on_the_chunk_size(monkeypatch):
    points = [lattice.BulkParams(t1, t2) for t1 in (0.4, 1.3, -2.0) for t2 in (0.7, -0.2, 2.5)]
    expected = analysis.sweep_edge_populations(points, lattice.PHI_PI, 30)
    for block_bytes in (1, 4 * 2 * 33 * 8):  # one row per stack; 4 rows, not dividing 9
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", block_bytes)
        assert np.array_equal(analysis.sweep_edge_populations(points, lattice.PHI_PI, 30),
                              expected)


def test_sweep_marks_a_failed_row_and_exits_numeric(tmp_path, monkeypatch):
    predict = cli.momentum.predict_bound_states

    def fail_at_zero(params, phi):
        if params.theta2 == 0.0:
            raise RuntimeError("prediction failed")
        return predict(params, phi)

    monkeypatch.setattr(cli.momentum, "predict_bound_states", fail_at_zero)
    out = tmp_path / "s.csv"
    assert main(["sweep", "theta1=pi/2", "theta2=0,pi/8", "steps=10",
                 "--out", str(out)]) == EXIT_NUMERIC
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0][4:] == ["nan", "-1", "-1", "error:RuntimeError"]
    assert rows[1][-1] == "ok"


def test_sweep_has_no_workers_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "theta1=pi/2", "theta2=0", "--workers", "2",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_sweep_single_point_matches_walk(tmp_path):
    sweep_out = tmp_path / "s.csv"
    walk_out = tmp_path / "w.csv"
    main(["sweep", "theta1=pi/2", "theta2=pi/8", "steps=30", "--out", str(sweep_out)])
    main(["walk", "theta1=pi/2", "theta2=pi/8", "steps=30", "--out", str(walk_out)])
    p_sweep = float(sweep_out.read_text().splitlines()[1].split(",")[4])
    p_walk = float(walk_out.read_text().splitlines()[-1].split(",")[1])
    assert p_sweep == p_walk


def test_quench_scenario_runs(tmp_path):
    out = tmp_path / "q.csv"
    assert main(["quench", "scenario=fig6b", "--out", str(out)]) == EXIT_OK
    final = float(out.read_text().splitlines()[-1].split(",")[1])
    assert final > 0.05


def test_quench_unknown_scenario(tmp_path):
    assert main(["quench", "scenario=nope", "--out", str(tmp_path / "q.csv")]) == EXIT_CONFIG


def test_quench_scenario_rejects_keys_it_defines(tmp_path):
    out = str(tmp_path / "q.csv")
    for key in ("theta1_i=0", "theta2_f=pi/4", "phi_f=pi", "kick=500"):
        assert main(["quench", "scenario=fig6c", key, "--out", out]) == EXIT_CONFIG
    assert main(["quench", "scenario=fig6c", "n0=20", "nq=10", "total=300",
                 "--out", out]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["walk", "steps=abc"],
    ["walk", "theta1=nan", "theta2=0"],
    ["walk", "theta1=pi/2", "steps=-5"],
    ["eigen", "theta1=pi/2", "n_max=10"],
    ["ramp", "nq_list=1,2"],
    ["pulse-verify", "tau=-1"],
    ["pulse-verify", "omega0=nan"],
    ["pulse-verify", "delta0=inf"],
    ["pulse-verify", "tau=inf"],
    ["pulse-verify", "dt=inf"],
    ["ramp", "scenario=nope"],
    ["quench", "theta1_i=pi/2", "theta2_i=0", "theta1_f=pi/2", "theta2_f=0", "kick=500"],
    ["sweep", "theta1=pi/2", "theta2=0", "steps=-5"],
    ["sweep", "theta1=pi/2", "theta2="],
    ["phase-diagram", "grid=0"],
    ["phase-diagram", "grid=2", "n_k=0"],
    ["phase-diagram", "grid=2", "transition_tol=nan"],
    ["phase-diagram", "grid=2", "transition_tol=-1"],
    ["ramp", "nq_list=0,1,2,3,4"],
    ["ramp", "n0=0"],
    ["ramp", "post=-5"],
    ["quench", "theta1_i=pi/2", "theta2_i=0", "theta1_f=pi/2", "theta2_f=0", "kick=-1"],
    ["walk", "theta1=pi/2", "frame=lab"],
    ["sweep", "theta1=nan", "theta2=0"],
    ["sweep", "theta1=pi/2", "theta2=inf"],
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_values_exit_with_one_error_line(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no CSV


def test_memory_error_exits_with_one_error_line(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(cli.analysis, "sweep_edge_populations", exhausted)
    out = tmp_path / "x.csv"
    assert main(["sweep", "theta1=pi/2", "theta2=0", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 1.46 TiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["pulse-verify", "omega0=1e200"],
    ["pulse-verify", "omega0=1e300"],
    ["pulse-verify", "delta0=1e300"],
])
def test_huge_pulse_amplitudes_exit_numeric_with_one_line(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numeric error: ")
    assert "Traceback" not in err


def test_phase_diagram_has_no_workers_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phase-diagram", "grid=2", "--workers", "2", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_unusable_output_path_is_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli.lattice, "evolve", fail)
    for module in (cli.lattice, cli.analysis, cli.quench):  # every binding of the stepper
        monkeypatch.setattr(module, "_trajectory", fail)
    monkeypatch.setattr(cli, "_diagram_point", fail)
    monkeypatch.setattr(cli.analysis, "sweep_edge_populations", fail)
    good = tmp_path / "good.csv"
    missing = str(tmp_path / "missing" / "x.csv")
    walk = ["walk", "theta1=pi/2", "theta2=0", "steps=4000"]
    for argv in (walk + ["--out", str(tmp_path)],
                 walk + ["--out", missing],
                 walk + ["--out", str(good), "--json", str(tmp_path)],
                 walk + ["--out", str(good), "--dist-out", missing],
                 ["quench", "scenario=fig6d-kick", "--out", missing],
                 ["sweep", "theta1=pi/2", "theta2=0", "--out", missing],
                 ["phase-diagram", "--out", str(good), "--json", missing],
                 ["pulse-verify", "--out", str(tmp_path)]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # nothing created or truncated


def test_outputs_naming_the_same_file_are_rejected_before_any_work(tmp_path, monkeypatch,
                                                                   capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli.lattice, "evolve", fail)
    for module in (cli.lattice, cli.analysis, cli.quench):  # every binding of the stepper
        monkeypatch.setattr(module, "_trajectory", fail)
    monkeypatch.setattr(cli.quench, "landau_zener_fit", fail)
    monkeypatch.chdir(tmp_path)
    walk = ["walk", "theta1=pi/2", "theta2=0", "steps=4000"]
    for argv in (walk + ["--out", "a.csv", "--json", "a.csv"],
                 ["quench", "scenario=fig6c", "--out", "q.csv", "--json", "q.csv"],
                 walk + ["--out", "a.csv", "--dist-out", "a.csv"],
                 walk + ["--out", "a.csv", "--dist-out", str(tmp_path / "a.csv")],
                 walk + ["--out", "a.csv", "--json", "b.json", "--dist-out", "./b.json"],
                 ["ramp", "--out", "r.csv", "--json", "r.csv"]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "same file" in err
    assert list(tmp_path.iterdir()) == []  # nothing created or truncated


def test_unusable_path_exits_with_one_error_line(tmp_path, capsys):
    directory = str(tmp_path)
    for argv in (["walk", "theta1=pi/2", "theta2=0", "steps=5", "--out", directory],
                 ["walk", "--config", directory, "--out", str(tmp_path / "x.csv")],
                 ["pulse-verify", "n_max=4", "tau=10", "dt=0.004", "--out", directory]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _modules_after_cli_import() -> list[str]:
    code = "import json, sys, fockwalk.cli; print(json.dumps(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(fockwalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_cli_import_loads_no_scipy():
    assert [m for m in _modules_after_cli_import() if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_process_pool():
    assert "concurrent.futures.process" not in _modules_after_cli_import()


def test_eigen_table(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["eigen", "theta1=pi/2", "theta2=0", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "mode_class,eigenphase,edge_weight,p0,p1,ratio10,ratio21"
    assert len(lines) == 2 and lines[1].startswith("zero,")
    ratio = float(lines[1].split(",")[5])
    assert ratio == pytest.approx((math.sqrt(2) - 1) ** 2, abs=1e-10)


def test_pulse_verify_report(tmp_path, capsys):
    assert main(["pulse-verify", "theta1=pi/2", "theta2=pi/4", "n_max=6",
                 "tau=100", "dt=0.004"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["step_deviation"] < 1e-12
    assert payload["adiabatic"] is True


def test_phase_diagram_csv(tmp_path):
    out = tmp_path / "pd.csv"
    assert main(["phase-diagram", "grid=8", "n_k=512", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "theta1,theta2,nu0,nu_pi,delta0,delta_pi,status"
    labels = set()
    for line in lines[1:]:
        parts = line.split(",")
        if parts[-1] == "ok":
            labels.add((int(parts[2]), int(parts[3])))
    assert labels == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_output_files_use_lf_line_endings(tmp_path):
    out = tmp_path / "w.csv"
    main(["walk", "theta1=pi/2", "theta2=0", "steps=5", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8")
