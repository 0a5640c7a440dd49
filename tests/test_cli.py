import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tracemalloc

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

from oracle import MERGED_TOL


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
    for (theta1, theta2, steps), frame in itertools.product(
            (("pi/2", "0", 20), ("pi/2", "0", 3), ("-pi", "pi/4", 10)), ("walk", "chiral")):
        assert main(["walk", f"theta1={theta1}", f"theta2={theta2}", f"steps={steps}",
                     f"frame={frame}", "--out", str(out), "--dist-out", str(dist)]) == EXIT_OK
        lines = dist.read_text().splitlines()
        assert lines[0] == "n,p_n,re_a,im_a,re_b,im_b"
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert "-0" not in {cell for line in lines[1:] for cell in line.split(",")}


@pytest.mark.parametrize("frame", ["walk", "chiral"])
@pytest.mark.parametrize("phi", [lattice.PHI_ZERO, lattice.PHI_PI])
def test_walk_distribution_is_the_final_state(frame, phi, tmp_path, monkeypatch):
    # at 10 steps from theta1 = pi/2, theta2 = 0 the square of a numpy scalar
    # (C pow) and np.square differ in the last bits of p_2
    out, dist = tmp_path / "w.csv", tmp_path / "d.csv"
    argv = ["walk", "theta1=pi/2", "theta2=0", f"phi={phi.phi!r}", "steps=10",
            f"frame={frame}", "--out", str(out), "--dist-out", str(dist)]
    _, state = analysis.walk_table(lattice.BulkParams(math.pi / 2, 0.0), phi, 10, frame)
    # the final state, then its negation, whose empty sites all hold -0, to print as 0
    negated = lattice.WalkerState(-state.amps, state.step_count)
    assert np.signbit(negated.amps[negated.amps == 0]).any()
    walk_table = analysis.walk_table
    for final in (state, negated):
        if final is negated:
            monkeypatch.setattr(analysis, "walk_table",
                                lambda *args: (walk_table(*args)[0], negated))
        assert main(argv) == EXIT_OK
        p = lattice._site_probabilities(final.amps)
        up, down = final.amps + 0.0
        want = "".join("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                       % (n, p[n], up[n].real, up[n].imag, down[n].real, down[n].imag)
                       for n in range(final.n_max + 1))
        written = dist.read_text()
        assert written == "n,p_n,re_a,im_a,re_b,im_b\n" + want
        assert "-0" not in {cell for line in written.splitlines() for cell in line.split(",")}


def test_walk_rejects_unknown_keys(tmp_path):
    code = main(["walk", "theta1=pi/2", "bogus=1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_empty_config_is_an_error(tmp_path):
    assert main(["walk", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_empty_config_path_exits_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["walk", "theta1=pi/2", "steps=5", "--config", "", "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


def test_repeated_key_is_rejected_and_the_command_line_overrides_config(tmp_path, capsys):
    out, ref, cfg = tmp_path / "w.csv", tmp_path / "ref.csv", tmp_path / "run.cfg"
    cfg.write_text("theta1 = pi/2\ntheta1=0\n")
    for argv in (["walk", "theta1=pi/2", "theta2=0", "theta1=0"],
                 ["walk", "--config", str(cfg)],
                 ["walk", "--config", str(cfg), "theta1=0"]):
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "theta1= given twice" in err
    assert not out.exists()
    cfg.write_text("theta1=pi/2\ntheta2=pi/4\nsteps=12\n")
    assert main(["walk", "--config", str(cfg), "theta2=0", "--out", str(out)]) == EXIT_OK
    assert main(["walk", "theta1=pi/2", "theta2=0", "steps=12", "--out", str(ref)]) == EXIT_OK
    assert out.read_bytes() == ref.read_bytes()


# Every key of every subcommand with the default its --help must show (None: no default).
HELP_DEFAULTS = {
    "walk": {"theta1": "pi/2", "theta2": "0", "phi": "0", "steps": "100", "frame": "chiral"},
    "sweep": {"theta1": "pi/2", "theta2": "0", "phi": "0", "steps": "100"},
    "quench": {"theta1_i": None, "theta2_i": None, "theta1_f": None, "theta2_f": None,
               "phi_i": "0", "phi_f": "0", "n0": "20", "nq": "1", "total": "n0 + nq + 80",
               "kick": "none", "scenario": None},
    "ramp": {"scenario": "fig6c", "nq_list": "1,2,3,4,6,8,10,12", "n0": "20", "post": "80"},
    "eigen": {"theta1": "pi/2", "theta2": "0", "phi": "0", "n_max": "64"},
    "pulse-verify": {"theta1": "pi/2", "theta2": "0", "phi": "0", "n_max": "12",
                     "omega0": "1.0", "delta0": "1.0", "tau": "100.0", "dt": "0.004"},
    "phase-diagram": {"grid": "32", "lo": "-2pi", "hi": "2pi", "n_k": "1024",
                      "transition_tol": "0.01"},
}


@pytest.mark.parametrize("command", sorted(HELP_DEFAULTS))
def test_help_lists_every_key_with_its_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    listed = {line.split()[0]: line for line in text.split("keys (key=value", 1)[1].splitlines()[1:]
              if line.strip()}
    assert list(listed) == list(HELP_DEFAULTS[command])
    for key, default in HELP_DEFAULTS[command].items():
        if default is None:
            assert "(default" not in listed[key]
        else:
            assert listed[key].endswith(f"(default {default})")


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
        p_edge = analysis.observable_record(steps, state).p_edge
        rows.append([index, t1, t2, phi.phi, p_edge, b0, bpi, "ok"])
    cli.write_csv(str(path), cli.SWEEP_HEADER, rows)


def test_sweep_matches_per_point_evolve(tmp_path):
    t1s = [math.pi / 2, -math.pi / 3, 0.3, 2.9] + [k * math.pi / 12 for k in range(-11, 12, 3)]
    t2s = [math.pi / 2, -5 * math.pi / 8, -math.pi / 8, math.pi / 8, 3 * math.pi / 8, 0.0,
           7 * math.pi / 8, -1.1, 2.2, -3.0]
    # at 150 steps a stack holds at most 102 walkers, whose widest stepped
    # state fits 2 x _BLOCK_BYTES, so the 120 points cross a stack boundary
    widest = int(lattice._stepped_widths(150, 2).max())
    assert len(t1s) * len(t2s) * 2 * widest * 8 > 2 * lattice._BLOCK_BYTES
    for phi, steps in ((lattice.PHI_ZERO, 150), (lattice.PHI_PI, 150), (lattice.PHI_ZERO, 0)):
        out, ref = tmp_path / "sweep.csv", tmp_path / "ref.csv"
        argv = ["sweep", "theta1=" + ",".join(map(repr, t1s)),
                "theta2=" + ",".join(map(repr, t2s)), f"phi={phi.phi!r}", f"steps={steps}"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        _reference_sweep_csv(ref, t1s, t2s, phi, steps)
        got, want = out.read_text().splitlines(), ref.read_text().splitlines()
        assert len(got) == len(want) and got[0] == want[0]
        p_edge = cli.SWEEP_HEADER.index("p_edge")
        for line, ref_line in zip(got[1:], want[1:]):  # merged coins move p_edge only
            cells, ref_cells = line.split(","), ref_line.split(",")
            assert cells[:p_edge] + cells[p_edge + 1:] == ref_cells[:p_edge] + ref_cells[p_edge + 1:]
            assert abs(float(cells[p_edge]) - float(ref_cells[p_edge])) <= MERGED_TOL["p_edge"]
        assert ",-1,-1,ok" in out.read_text().splitlines()[1]  # theta1 = theta2: gap closed


def test_sweep_edge_populations_do_not_depend_on_the_chunk_size(monkeypatch):
    points = lattice.BulkParams(np.repeat([0.4, 1.3, -2.0], 3), np.tile([0.7, -0.2, 2.5], 3))
    expected = analysis.sweep_edge_populations(points, lattice.PHI_PI, 30)
    # stacks of at most 1 and 2 walkers, 24 sites at most: 9 x 1, and 2, 2, 2, 2, 1
    for block_bytes in (1, 2 * 24 * 8):
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", block_bytes)
        assert np.array_equal(analysis.sweep_edge_populations(points, lattice.PHI_PI, 30),
                              expected)


def test_sweep_prediction_out_of_memory_exits_with_one_error_line(tmp_path, monkeypatch,
                                                                   capsys):
    # the prediction fails like the stepping before it: one line, no CSV
    def exhausted(real, phi):
        raise MemoryError()

    monkeypatch.setattr(cli.momentum, "bound_state_channels", exhausted)
    out = tmp_path / "s.csv"
    assert main(["sweep", "theta1=pi/2", "theta2=0,pi/8,pi/4", "steps=10",
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not out.exists()


def test_ramp_accepts_the_shortest_post_that_keeps_the_readout_after_the_ramp(tmp_path,
                                                                              capsys):
    # post = 9: the last 10 states of each ramp are the ramp's end and 9 later steps
    assert cli.quench.PLATEAU_WINDOW - 1 == 9
    assert main(["ramp", "post=9", "--out", str(tmp_path / "r.csv")]) == EXIT_OK
    fit = cli.quench.landau_zener_fit(cli.quench.scenario("fig6c"), [1, 2, 3, 4, 6, 8, 10, 12],
                                      post=9)
    assert json.loads(capsys.readouterr().out)["beta"] == fit.beta


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


# Each case's error line names its bad pair: the last pair, or the one before a
# trailing good theta2=0 (a later good pair does not hide it).
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
    ["quench", "scenario=fig6b", "n0=abc"],
    ["pulse-verify", "n_max=1.5"],
    ["phase-diagram", "n_k=1.5"],
    ["ramp", "nq_list=1,2,x,4,5"],
    ["walk", "steps=1e3"],
    ["walk", "theta2=abc"],
    ["walk", "theta2=0", "theta1=nan"],
    ["walk", "frame=bogus"],
    ["sweep", "theta2=0", "theta1=0,nan"],
    ["quench", "theta1_i=pi/2", "theta2_i=0", "theta1_f=pi/2", "theta2_f=0", "total=50",
     "kick=53"],
    ["phase-diagram", "grid=2", "lo=nan"],
    ["eigen", "theta1=1e400"],
    ["quench", "theta1_i=pi/2", "theta2_i=0", "theta1_f=pi/2", "theta2_f=-inf"],
    ["phase-diagram", "grid=2", "hi=inf"],
    ["pulse-verify", "theta2=-inf"],
    ["pulse-verify", "n_max=1"],
    ["quench", "scenario=fig6b", "total=5"],
    ["ramp", "post=8"],  # the plateau readout would reach into the ramp
    ["walk", "theta1=pi/0"],
    ["walk", "phi=pi/0"],
    ["sweep", "theta1=pi/2", "theta2=2pi/0.0"],
])
def test_bad_values_exit_with_one_error_line(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no CSV
    bad = argv[-2] if argv[-1] == "theta2=0" else argv[-1]
    assert err.startswith(f"error: {bad}: ")


# Values for the fuzz test: bad text and numbers, and small valid numbers and names,
# so that no draw does much work.
FUZZ_VALUES = ["", " ", "nan", "inf", "-inf", "1e308", "-1", "0", "1", "2", "0.5", "pi/0",
               "pi/2", "-2pi/3", "π/2", "ü", "0,1", "pi/2,0,-pi/2", "1,2,3,4,5", ",", "fig6c",
               "fig6d-kick", "none", "walk", "chiral", "=", "1.5"]


def test_seeded_fuzz_exits_with_a_code_and_at_most_one_line(tmp_path, capsys):
    """400 seeded draws, each a subcommand with 0-3 keys from its table or an
    unknown key, every value from ``FUZZ_VALUES``: the run exits 0 with an
    empty stderr, or 2 or 3 with one line, and no exception escapes."""
    rng = random.Random(2013)
    names = sorted(cli.COMMANDS)
    for _ in range(400):
        command = rng.choice(names)
        keys = [*cli.COMMANDS[command][1], "bogus"]
        pairs = [f"{rng.choice(keys)}={rng.choice(FUZZ_VALUES)}" for _ in range(rng.randint(0, 3))]
        argv = [command, *pairs, "--out", str(tmp_path / "out")]
        code = main(argv)
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == "", argv
        else:
            assert code in (EXIT_CONFIG, EXIT_NUMERIC), argv
            assert len(err.splitlines()) == 1 and err.endswith("\n"), argv
            assert err.startswith(("error: ", "numeric error: ")), argv


def test_zero_divisor_from_a_config_file_exits_with_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta1=pi/0\ntheta2=0\n")
    out = tmp_path / "x.csv"
    assert main(["walk", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: theta1=pi/0: the divisor is zero\n"
    assert not out.exists()


def test_step_and_grid_bounds_sit_at_their_limits():
    for keys, key, limit in ((cli.WALK_KEYS, "steps", cli.MAX_STEPS),
                             (cli.SWEEP_KEYS, "steps", cli.MAX_STEPS),
                             (cli.DIAGRAM_KEYS, "grid", cli.MAX_GRID),
                             (cli.EIGEN_KEYS, "n_max", cli.MAX_EIGEN_N),
                             (cli.PULSE_KEYS, "n_max", cli.MAX_PULSE_N)):
        parse = keys[key][0]
        assert parse(str(limit)) == limit
        with pytest.raises(ValueError, match=f"must be in (0|1|2|32)..{limit}"):
            parse(str(limit + 1))
    # the dense matrices stay within MAX_DENSE_DIM rows
    assert 2 * (cli.MAX_EIGEN_N + 1) <= cli.MAX_DENSE_DIM < 2 * (cli.MAX_EIGEN_N + 2)
    assert 3 * (cli.MAX_PULSE_N + 1) <= cli.MAX_DENSE_DIM < 3 * (cli.MAX_PULSE_N + 2)


@pytest.mark.parametrize("argv", [
    ["walk", "steps=100000000000000000000"],
    ["sweep", "steps=100000000000000000000"],
    ["phase-diagram", "grid=100000000000000000000"],
    ["eigen", "theta1=pi/2", "n_max=100000000000000000000"],
    ["pulse-verify", "n_max=100000000000000000000"],
])
def test_step_and_grid_bounds_are_checked_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")

    for name, (_, keys, summary) in cli.COMMANDS.items():  # every handler fails if called
        monkeypatch.setitem(cli.COMMANDS, name, (fail, keys, summary))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {argv[-1]}: must be in ")
    assert not out.exists()


@pytest.mark.parametrize("argv,bad", [
    (["quench", "scenario=fig6b", "total=100000000000000000000"],
     "total=100000000000000000000: must be in n0 + nq = 21..100000"),
    (["quench", "scenario=fig6b", "n0=100000000000000000000"],  # the default total
     "total=100000000000000000081: must be in n0 + nq = 100000000000000000001..100000"),
    (["quench", "theta1_i=pi/2", "theta2_i=0", "theta1_f=pi/2", "theta2_f=0", "total=100001"],
     "total=100001: must be in n0 + nq = 21..100000"),
    (["ramp", "nq_list=1,2,3,4,99901"], "nq_list=1,2,3,4,99901: 5 ramps of "),
    (["ramp", "nq_list=1,2,3,4,5", "n0=100000000000000000000"], "nq_list=1,2,3,4,5: 5 ramps "),
    (["ramp", "post=100000000000000000000"], "nq_list=1,2,3,4,6,8,10,12: 8 ramps "),
])
def test_quench_and_ramp_work_is_bounded_before_any_work(argv, bad, tmp_path, monkeypatch,
                                                          capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")

    for name in ("quench_table", "ramp_survival_curve", "landau_zener_fit", "_schedule"):
        monkeypatch.setattr(cli.quench, name, fail)
    monkeypatch.setattr(cli.analysis, "_trajectory", fail)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}")
    assert not out.exists()


def test_quench_and_ramp_work_bounds_sit_at_their_limits(tmp_path, monkeypatch):
    """At the limits the experiment runs; it is replaced here by a stub."""
    ran = []
    monkeypatch.setattr(cli.quench, "quench_table",
                        lambda protocol: ran.append(protocol.total_steps) or np.ones((1, 6)))
    monkeypatch.setattr(cli.quench, "landau_zener_fit", lambda sc, nqs, n0, post: ran.append(
        (len(set(nqs)), n0 + max(nqs) + post)) or cli.quench.LZFit(1.0, 1.0, 1.0, 0.1))
    out = str(tmp_path / "x.csv")
    assert main(["quench", "scenario=fig6b", f"total={cli.MAX_STEPS}", "--out", out]) == EXIT_OK
    # 25 ramps of 20000 steps step as many sites as one walk of 100000 steps
    nq_list = "nq_list=" + ",".join(map(str, [*range(1, 25), 19900]))
    assert main(["ramp", nq_list, "n0=20", "post=80", "--out", out]) == EXIT_OK
    assert main(["ramp", nq_list, "n0=20", "post=81", "--out", out]) == EXIT_CONFIG
    assert ran == [cli.MAX_STEPS, (25, 20000)]


def test_sweep_work_bound_sits_at_its_limit(tmp_path, monkeypatch, capsys):
    """16 x 16 points of 6250 steps step as many sites as one walk of MAX_STEPS
    steps and run (the experiment is a stub here); one step more exits 2 with
    one line before the grid is built."""
    ran = []
    monkeypatch.setattr(cli.analysis, "sweep_edge_populations", lambda grid, phi, steps: (
        ran.append((grid.theta1.size, steps)) or np.zeros(grid.theta1.size)))
    angles = ",".join(f"{k}pi/16" for k in range(16))
    out = tmp_path / "x.csv"
    sweep = ["sweep", f"theta1={angles}", f"theta2={angles}"]
    assert 16 * 16 * 6250**2 == cli.MAX_STEPS**2
    assert main(sweep + ["steps=6250", "--out", str(out)]) == EXIT_OK
    assert ran == [(256, 6250)] and len(out.read_text().splitlines()) == 257
    out.unlink()

    def fail(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli.lattice, "BulkParams", fail)
    for steps in (6251, cli.MAX_STEPS):
        assert main(sweep + [f"steps={steps}", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: steps={steps}: 256 points of {steps} steps: "
                       f"must be <= one {cli.MAX_STEPS}-step walk\n")
    assert ran == [(256, 6250)] and not out.exists()


class Reached(Exception):
    """Raised by a stub to end a run once its input is checked."""


def test_sweep_point_count_sits_at_its_limit(tmp_path, monkeypatch, capsys):
    """A sweep has at most MAX_GRID^2 points, the rows of the largest phase
    diagram, however few its steps: a 1000 x 1000 grid reaches the
    experiment (a stub here, which ends the run) in ``itertools.product``
    order; one point more exits 2 with one line before the grid is built."""
    side = cli.MAX_GRID
    theta1, theta2 = range(side), range(-side, 0)

    def experiment(grid, phi, steps):
        assert list(zip(grid.theta1.tolist(), grid.theta2.tolist())) == list(
            itertools.product(map(float, theta1), map(float, theta2)))
        raise Reached

    monkeypatch.setattr(cli.analysis, "sweep_edge_populations", experiment)
    out = tmp_path / "x.csv"
    sweep = ["sweep", "theta1=" + ",".join(map(str, theta1))]
    with pytest.raises(Reached):
        main(sweep + ["theta2=" + ",".join(map(str, theta2)), "steps=1", "--out", str(out)])

    def fail(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli.lattice, "BulkParams", fail)
    for steps in (0, 1):
        wider = "theta2=" + ",".join(map(str, range(-side, 1)))
        assert main(sweep + [wider, f"steps={steps}", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: theta1=, theta2=: {side * (side + 1)} points: must be <= {side * side}\n")
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["walk", "theta1=pi/2", "theta2=0", "steps=300"],
    ["walk", "theta1=3pi/4", "theta2=pi/4", "steps=300", "frame=chiral"],
    ["quench", "scenario=fig6c"],
])
def test_norm_drift_exits_numeric_with_one_line(argv, tmp_path, monkeypatch, capsys):
    """A step kernel that scales each state by 1 - 1e-11 drifts past
    NUMERIC_TOL: walk and quench exit 3 with one line and write nothing."""
    step = lattice._step

    def lossy(prev, first, second, sign, scratch, out, head):
        step(prev, first, second, sign, scratch, out, head)
        out *= 1.0 - 1e-11

    monkeypatch.setattr(lattice, "_step", lossy)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: norm drift ") and err.endswith("exceeds 1e-10\n")
    assert len(err.splitlines()) == 1 and not out.exists()
    monkeypatch.setattr(lattice, "_step", step)
    assert main(argv + ["--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("argv,scale", [
    (["sweep", "theta1=pi/2,3pi/4", "theta2=0,pi/4", "steps=60"], 3.0),
    (["sweep", "theta1=pi/2,3pi/4", "theta2=0,pi/4", "steps=60"], -1.0),
    (["sweep", "theta1=pi/2,3pi/4", "theta2=0,pi/4", "steps=60"], math.nan),
    (["ramp", "scenario=fig6c", "nq_list=1,2,3,4,6,8,10,12"], 3.0),
])
def test_edge_population_out_of_range_exits_numeric_with_one_line(argv, scale, tmp_path,
                                                                   monkeypatch, capsys):
    """An edge reader whose P_edge leaves [0, 1 + NUMERIC_TOL] makes sweep and
    ramp exit 3 with one line and write nothing.  Scaled by 3, ramp's losses
    (ratios to the slowest ramp) and so its fit stay as they are."""
    edge = analysis._edge_populations
    monkeypatch.setattr(analysis, "_edge_populations", lambda p: scale * edge(p))
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: P_edge ") and err.endswith(
        " outside [0, 1 + 1e-10]\n")
    assert len(err.splitlines()) == 1 and not out.exists()
    monkeypatch.setattr(analysis, "_edge_populations", edge)
    assert main(argv + ["--out", str(out)]) == EXIT_OK


def test_passage_step_limit_is_checked_before_any_work(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")

    for name in ("verify_cycle", "compile_six_step_cycle", "_stirap_batch"):
        monkeypatch.setattr(cli.pulse, name, fail)
    out = tmp_path / "x.json"
    assert main(["pulse-verify", "dt=1e-9", "tau=1e6", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    for word in ("dt=1e-09", "tau=1e+06", str(cli.pulse.MAX_PASSAGE_STEPS)):
        assert word in err
    assert not out.exists()
    # exactly at the limit is allowed; one step more, or an overflow, is not
    limit = cli.pulse.MAX_PASSAGE_STEPS
    cli.pulse.PulseConfig(1.0, 1.0, float(limit), 1.0)
    for tau, dt in ((limit + 1.0, 1.0), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="passage steps"):
            cli.pulse.PulseConfig(1.0, 1.0, tau, dt)


def test_one_parser_serves_good_and_bad_calls_in_turn(tmp_path, capsys):
    assert cli._parser() is cli._parser()  # built once
    walk = tmp_path / "walk.csv"
    quench = tmp_path / "quench.csv"
    good_walk = ["walk", "theta1=pi/2", "theta2=pi/8", "steps=7", "--out", str(walk)]
    good_quench = ["quench", "scenario=fig6b", "total=40", "--out", str(quench)]
    assert main(good_walk) == EXIT_OK
    assert main(good_quench) == EXIT_OK
    first = walk.read_bytes(), quench.read_bytes()
    capsys.readouterr()
    for bad in (["quench", "scenario=fig6b"],  # argparse: --out missing
                ["walk", "theta1=pi/2", "--bogus", "--out", str(walk)]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage: fockwalk" in capsys.readouterr().err
    assert main(["walk", "theta1=pi/2", "steps=-5", "--out", str(walk)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    walk.unlink()
    quench.unlink()
    assert main(good_quench) == EXIT_OK
    assert main(good_walk) == EXIT_OK
    assert (walk.read_bytes(), quench.read_bytes()) == first
    assert capsys.readouterr() == ("", "")


def test_phase_diagram_has_no_workers_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phase-diagram", "grid=2", "--workers", "2", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_unusable_output_path_is_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli.lattice, "evolve", fail)
    for module in (cli.lattice, cli.analysis):  # every binding of the stepper
        monkeypatch.setattr(module, "_trajectory", fail)
    monkeypatch.setattr(cli.momentum, "phase_diagram", fail)
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
    for module in (cli.lattice, cli.analysis):  # every binding of the stepper
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


@pytest.mark.parametrize("argv,flag", [
    (["walk", "theta1=pi/2", "--out", "w.csv", "--json", ""], "--json"),
    (["walk", "theta1=pi/2", "--out", "w.csv", "--dist-out", ""], "--dist-out"),
    (["pulse-verify", "--out", ""], "--out"),
    (["walk", "theta1=pi/2", "--out", ""], "--out"),
])
def test_empty_output_path_is_rejected_before_any_work(argv, flag, tmp_path, monkeypatch,
                                                       capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")

    for name, (_, keys, summary) in cli.COMMANDS.items():  # every handler fails if called
        monkeypatch.setitem(cli.COMMANDS, name, (fail, keys, summary))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: the path is empty\n"
    assert list(tmp_path.iterdir()) == []  # nothing created


def _modules_after_cli_import(then: str = "") -> list[str]:
    """The modules of a fresh interpreter after ``import fockwalk.cli`` and
    the statement ``then``."""
    code = f"import json, sys, fockwalk.cli\n{then}\nprint(json.dumps(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(fockwalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_cli_import_loads_no_scipy():
    assert [m for m in _modules_after_cli_import() if m.split(".")[0] == "scipy"] == []


def test_sweep_and_phase_diagram_load_no_module_beyond_the_cli_import(tmp_path):
    """A ``sweep`` and a ``phase-diagram`` run, with its --json mirror, load
    no module that ``import fockwalk.cli`` and the parser every subcommand
    builds have not (argparse's gettext loads ``locale`` for the parser)."""
    runs = [["sweep", "theta1=pi/2,-pi/4", "theta2=0,pi/8", "steps=30",
             "--out", str(tmp_path / "s.csv")],
            ["phase-diagram", "--out", str(tmp_path / "d.csv"), "--json", str(tmp_path / "d.json")]]
    parsed = set(_modules_after_cli_import("fockwalk.cli._parser()"))
    ran = _modules_after_cli_import(f"assert [fockwalk.cli.main(a) for a in {runs!r}] == [0, 0]")
    assert sorted(set(ran) - parsed) == []
    assert (tmp_path / "s.csv").exists() and (tmp_path / "d.json").exists()


def test_cli_import_loads_no_process_pool():
    assert "concurrent.futures.process" not in _modules_after_cli_import()


def test_cli_import_loads_no_dataclasses():
    """The value records are ``typing.NamedTuple`` classes, which cost a
    fraction of a dataclass to create; numpy loads no ``dataclasses`` either."""
    assert "dataclasses" not in _modules_after_cli_import()


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


def _oracle_diagram_rows(values, n_k, transition_tol):
    """DIAGRAM_HEADER rows point by point with the scalar formulas (math
    half-angles, numpy band edges at k = 0 and pi) that the array-valued
    `momentum.phase_diagram` replaced; raises its GapClosed at the first
    unresolved point."""
    rows = []
    for t1, t2 in itertools.product(values, values):
        c1, s1, c2, s2 = math.cos(t1 / 2), math.sin(t1 / 2), math.cos(t2 / 2), math.sin(t2 / 2)
        edges = np.arccos(np.clip(c2 * c1 * np.cos(np.array([0.0, math.pi])) - s1 * s2,
                                  -1.0, 1.0))
        d0, dpi = float(edges.min()), math.pi - float(edges.max())
        if min(d0, dpi) < transition_tol:
            rows.append([t1, t2, -1, -1, d0, dpi, "transition"])
            continue
        spacing = 2.0 * math.pi / n_k
        if min(math.sin(d0), math.sin(dpi)) <= spacing:
            raise momentum.GapClosed(f"gaps ({d0:.2e}, {dpi:.2e}) not resolved by n_k = {n_k}: "
                                     f"needs sin(gap) > 2pi/n_k = {spacing:.2e}")
        a, b = abs(s1 * c2), abs(c1 * s2)
        nu_p = (1 if s1 > 0 else -1) if a > b else 0
        nu_dp = (1 if s2 > 0 else -1) if b > a else 0
        rows.append([t1, t2, ((1 + nu_p + nu_dp) // 2) % 2, ((1 - nu_p + nu_dp) // 2) % 2,
                     d0, dpi, "ok"])
    return rows


def _oracle_csv(header, rows) -> str:
    """CSV text formatted cell by cell: 17 significant digits for a float."""
    return "".join(",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
                   + "\n" for row in [header, *rows])


def test_write_csv_matches_cell_by_cell_formatting(tmp_path):
    header = ["n", "x", "label", "y"]
    rows = [[0, 0.1, "ok", float("nan")], [1, -0.0, "transition", np.float64(2.5)],
            [-1, 1e-300, "error:RuntimeError", float("inf")], [12, 0.0, "ok", -math.pi]]
    for table in (rows, []):
        for given in (table, iter(table), (tuple(row) for row in table)):
            path = tmp_path / "t.csv"
            cli.write_csv(str(path), header, given)
            assert path.read_text(encoding="utf-8") == _oracle_csv(header, table)


@pytest.mark.parametrize("argv,table", [
    (["walk", "theta1=pi/2", "theta2=pi/8", "steps=200", "frame=chiral"],
     lambda: analysis.walk_table(lattice.BulkParams(math.pi / 2, math.pi / 8),
                                 lattice.PHI_ZERO, 200, "chiral")[0]),
    (["quench", "scenario=fig6d-kick"],
     lambda: cli.quench.quench_table(cli.quench.scenario("fig6d-kick").protocol())),
])
def test_timeseries_rows_write_the_table_cell_by_cell(tmp_path, argv, table):
    """``walk`` and ``quench`` write the observable table, row k after step
    k, cell by cell into the CSV and as one object per row into the --json
    mirror, whatever container the rows are handed over in."""
    out, mirror = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(out), "--json", str(mirror)]) == EXIT_OK
    rows = [[k, *row] for k, row in enumerate(table().tolist())]
    assert out.read_text(encoding="utf-8") == _oracle_csv(cli.TIMESERIES_HEADER, rows)
    payload = [dict(zip(cli.TIMESERIES_HEADER, row)) for row in rows]
    assert mirror.read_text(encoding="utf-8") == json.dumps(payload, indent=1) + "\n"


# Timeseries rows steps + 1 and distribution rows steps + 3 on each side of
# the 256-row chunks, and the large benchmark's 4000-step walk.
@pytest.mark.parametrize("steps", [252, 253, 254, 255, 256, 4000])
@pytest.mark.parametrize("mirror", [False, True])
def test_walk_rows_stream_across_chunk_edges(tmp_path, steps, mirror):
    """The walk's CSVs, streamed ``_ROW_CHUNK`` rows at a time, and its --json
    mirror equal the cell-by-cell oracle of the whole table and state."""
    assert cli._ROW_CHUNK == 256
    out, dist, js = tmp_path / "w.csv", tmp_path / "d.csv", tmp_path / "w.json"
    argv = ["walk", "theta1=pi/2", "theta2=pi/8", f"steps={steps}", "--out", str(out),
            "--dist-out", str(dist)] + (["--json", str(js)] if mirror else [])
    assert main(argv) == EXIT_OK
    table, state = analysis.walk_table(lattice.BulkParams(math.pi / 2, math.pi / 8),
                                       lattice.PHI_ZERO, steps, "chiral")
    rows = [[k, *row] for k, row in enumerate(table.tolist())]
    assert out.read_text(encoding="utf-8") == _oracle_csv(cli.TIMESERIES_HEADER, rows)
    up, down = state.amps + 0.0
    p = lattice._site_probabilities(state.amps)
    cells = [[n, float(p[n]), float(up[n].real), float(up[n].imag), float(down[n].real),
              float(down[n].imag)] for n in range(state.n_max + 1)]
    assert dist.read_text(encoding="utf-8") == _oracle_csv(cli.DISTRIBUTION_HEADER, cells)
    if mirror:
        payload = [dict(zip(cli.TIMESERIES_HEADER, row)) for row in rows]
        assert js.read_text(encoding="utf-8") == json.dumps(payload, indent=1) + "\n"
    else:
        assert not js.exists()


def test_walk_writes_its_csvs_in_bounded_memory(tmp_path, monkeypatch):
    """The tracemalloc peak of writing the 4000-step walk's two CSVs through
    ``main``, with the walk itself precomputed: the final state's five
    columns and one chunk of rows at a time (234295 bytes, numpy 2.4.6 on
    x86-64), with ~10% headroom.  Rows made a list first peaked at 1324755."""
    params = lattice.BulkParams(math.pi / 2, 0.0)
    walked = analysis.walk_table(params, lattice.PHI_ZERO, 4000, "chiral")
    monkeypatch.setattr(analysis, "walk_table", lambda *args: walked)
    argv = ["walk", "theta1=pi/2", "theta2=0", "steps=4000", "--out", str(tmp_path / "w.csv"),
            "--dist-out", str(tmp_path / "d.csv")]
    assert main(argv) == EXIT_OK  # warm: the parser and first-call allocations
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 258_000


# The default grid, grids 7 and 64, and the shifted bounds of the scan
# benchmark's seeds 1 and 3 (which coincide) and 2.
@pytest.mark.parametrize("keys", [
    {"grid": 7}, {}, {"grid": 64}, {"grid": 32, "n_k": 2048, "transition_tol": 0.2},
    {"lo": "-7.1667582410017152", "hi": "5.3996123733574573"},
    {"lo": "-5.203262832508095", "hi": "7.3631077818510775"},
])
def test_phase_diagram_matches_the_per_point_oracle(tmp_path, keys):
    config = {"grid": 32, "lo": "-2pi", "hi": "2pi", "n_k": 1024, "transition_tol": 0.01, **keys}
    lo, hi, grid = parse_angle(config["lo"]), parse_angle(config["hi"]), config["grid"]
    values = [lo + (hi - lo) * (i + 0.5) / grid for i in range(grid)]
    rows = _oracle_diagram_rows(values, config["n_k"], config["transition_tol"])
    assert {row[-1] for row in rows} == {"ok", "transition"}
    out, mirror = tmp_path / "pd.csv", tmp_path / "pd.json"
    argv = ["phase-diagram", *(f"{key}={value}" for key, value in config.items())]
    assert main(argv + ["--out", str(out), "--json", str(mirror)]) == EXIT_OK
    assert out.read_text(encoding="utf-8") == _oracle_csv(cli.DIAGRAM_HEADER, rows)
    payload = [dict(zip(cli.DIAGRAM_HEADER, row)) for row in rows]
    assert mirror.read_text(encoding="utf-8") == json.dumps(payload, indent=1) + "\n"


def _first_difference(got: str, want: str):
    """The first line number where two texts differ, with both lines, or None
    (pytest's own diff of two long texts can run for minutes)."""
    for number, pair in enumerate(itertools.zip_longest(got.splitlines(), want.splitlines())):
        if pair[0] != pair[1]:
            return number, *pair
    return None


def _sweep_float_rows(t1s, t2s, phi, steps):
    grid = lattice.BulkParams(np.repeat(t1s, len(t2s)), np.tile(t2s, len(t1s)))
    p_edge = analysis.sweep_edge_populations(grid, phi, steps)
    b0, b_pi = momentum.bound_state_channels(grid, phi)
    return [[k, float(grid.theta1[k]), float(grid.theta2[k]), phi.phi, float(p_edge[k]),
             int(b0[k]), int(b_pi[k]), "ok"] for k in range(len(p_edge))]


def _diagram_float_rows(grid):
    values = [-2 * math.pi + 4 * math.pi * (i + 0.5) / grid for i in range(grid)]
    params, gaps, label, transition = momentum.phase_diagram(values, values)
    return [[float(params.theta1[k]), float(params.theta2[k]),
             -1 if transition[k] else int(label.nu0[k]),
             -1 if transition[k] else int(label.nu_pi[k]),
             float(gaps.delta0[k]), float(gaps.delta_pi[k]),
             "transition" if transition[k] else "ok"] for k in range(len(transition))]


@pytest.mark.parametrize("argv,header,float_rows", [
    (["sweep", "theta1=-0,0,pi/2", "theta2=pi/8,0,-0,pi/8", "steps=20"], cli.SWEEP_HEADER,
     lambda: _sweep_float_rows([-0.0, 0.0, math.pi / 2], [math.pi / 8, 0.0, -0.0, math.pi / 8],
                               lattice.PHI_ZERO, 20)),
    (["phase-diagram", "grid=8"], cli.DIAGRAM_HEADER, lambda: _diagram_float_rows(8)),
    (["phase-diagram"], cli.DIAGRAM_HEADER, lambda: _diagram_float_rows(32)),
], ids=["sweep", "diagram-8", "diagram-32"])
def test_grid_tables_format_each_cell_like_the_oracle(tmp_path, argv, header, float_rows):
    """The sweep and the phase diagram format each distinct grid and gap
    value once; their CSVs still equal the cell-by-cell oracle, with -0.0 and
    0.0 in one column apart, and their --json mirrors carry the numbers."""
    out, mirror = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(out), "--json", str(mirror)]) == EXIT_OK
    rows = float_rows()
    assert _first_difference(out.read_text(encoding="utf-8"), _oracle_csv(header, rows)) is None
    payload = [dict(zip(header, row)) for row in rows]
    assert _first_difference(mirror.read_text(encoding="utf-8"),
                             json.dumps(payload, indent=1) + "\n") is None
    if argv[0] == "sweep":  # both zeros reach each angle column
        columns = list(zip(*(line.split(",") for line in out.read_text().splitlines()[1:])))
        assert {"-0", "0"} <= set(columns[1]) and {"-0", "0"} <= set(columns[2])


@pytest.mark.parametrize("lo,hi", [("-2pi", "2pi"), ("-7.1667582410017152", "5.3996123733574573")])
def test_phase_diagram_reports_the_oracle_s_first_unresolved_point(tmp_path, capsys, lo, hi):
    low, high = parse_angle(lo), parse_angle(hi)
    values = [low + (high - low) * (i + 0.5) / 8 for i in range(8)]
    with pytest.raises(momentum.GapClosed) as exc:
        _oracle_diagram_rows(values, 8, 0.01)
    argv = ["phase-diagram", "grid=8", "n_k=8", f"lo={lo}", f"hi={hi}"]
    assert main(argv + ["--out", str(tmp_path / "pd.csv")]) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numeric error: {exc.value}\n"


def test_output_files_use_lf_line_endings(tmp_path):
    out = tmp_path / "w.csv"
    main(["walk", "theta1=pi/2", "theta2=0", "steps=5", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8")


def _readme_examples() -> list[list[str]]:
    """The argv of every ``fockwalk`` command in README's "Command line" block."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("fockwalk ")]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    examples = _readme_examples()
    assert sorted({argv[0] for argv in examples}) == sorted(cli.COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv) == EXIT_OK, argv
