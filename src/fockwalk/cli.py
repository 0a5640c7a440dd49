"""Deterministic command-line experiment runner.

Each subcommand reproduces one family of numerical experiments: a single
walk, a parameter sweep of the final edge population, a quench, a ramped
quench sweep with the Landau-Zener fit, the edge-mode spectrum, pulse-level
verification of the six-step cycle, and the phase diagram.  Identical
invocations produce byte-identical CSV output (fixed float formatting,
UTF-8, LF line endings); an optional JSON mirror carries the same values.

Angles are written as multiples of pi ("pi/2", "-2pi/3", "0.25pi") so that
configurations round-trip without decimal drift; plain decimal radians are
also accepted.  Key=value pairs may come from the command line or from a
config file with one pair per line and '#' comments; the command line
overrides the file, and a key repeated within either is an error.

Exit codes: 0 success, 2 configuration error (running out of memory
included), 3 numeric-invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import analysis, lattice, momentum, pulse, quench

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_PI_LITERAL = re.compile(
    r"^(?P<sign>[+-]?)(?P<coeff>\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(?P<div>\d+(?:\.\d+)?))?$")


class ConfigError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Angle in radians from a pi-literal ("pi/2", "-2pi/3") or a decimal."""
    s = str(text).strip().lower().replace(" ", "")
    m = _PI_LITERAL.match(s)
    if m:
        divisor = float(m.group("div") or 1.0)
        if divisor == 0.0:
            raise ConfigError("the divisor is zero")
        value = float(m.group("coeff") or 1.0) * math.pi / divisor
        return -value if m.group("sign") == "-" else value
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None


def parse_phi(text: str) -> lattice.BoundaryPhase:
    value = parse_angle(text)
    if value == 0.0:
        return lattice.PHI_ZERO
    if abs(value - math.pi) < 1e-15:
        return lattice.PHI_PI
    raise ConfigError(f"boundary phase must be 0 or pi, got {text!r}")


def _checked(convert, ok, reason: str):
    """A key parser: ``convert`` the text, then reject a value failing ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(reason)
        return value
    return parse


# Work bounds far above every example and benchmark workload, checked before any
# work; P ramps or sweep points of T steps each may step P T^2 <= MAX_STEPS^2 sites.
MAX_STEPS = 100_000  # walk, sweep-point and quench steps
MAX_GRID = 1000  # phase-diagram points per axis
MAX_DENSE_DIM = 2048  # rows of pulse-verify's cycle (3 n_max + 3) and eigen's oracle (2 n_max + 2)
MAX_EIGEN_N, MAX_PULSE_N = MAX_DENSE_DIM // 2 - 1, MAX_DENSE_DIM // 3 - 1

_POSITIVE = _checked(int, lambda n: n >= 1, "must be >= 1")
_STEPS = _checked(int, lambda n: 0 <= n <= MAX_STEPS, f"must be in 0..{MAX_STEPS}")
_GRID = _checked(int, lambda n: 1 <= n <= MAX_GRID, f"must be in 1..{MAX_GRID}")
_TOLERANCE = _checked(float, lambda x: 0 <= x < math.inf, "must be finite and >= 0")
_POSITIVE_REAL = _checked(float, lambda x: 0 < x < math.inf, "must be finite and > 0")
_ANGLE = _checked(parse_angle, math.isfinite, "must be finite")
_ANGLES = _checked(lambda text: [_ANGLE(part) for part in text.split(",") if part.strip()],
                   bool, "needs at least one angle")
_DURATIONS = _checked(lambda text: [_POSITIVE(part) for part in text.split(",")],
                      lambda nqs: len(set(nqs)) >= 5, "needs at least 5 distinct ramp durations")
_KICK = _checked(lambda text: None if text == "none" else int(text),
                 lambda site: site is None or site >= 0, "must be a site >= 0 or none")
_FRAME = _checked(str, lambda frame: frame in ("walk", "chiral"), "must be walk or chiral")


def _add_pair(pairs: dict[str, str], item: str, where: str = "") -> None:
    key, sep, value = item.partition("=")
    key = key.strip()
    if not sep:
        raise ConfigError(f"{where}expected key=value, got {item!r}")
    if key in pairs:
        raise ConfigError(f"{where}{key}= given twice")
    pairs[key] = value.strip()


def read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                _add_pair(pairs, line, f"{path}:{lineno}: ")
    return pairs


def resolve(args, keys: dict) -> tuple[argparse.Namespace, set[str]]:
    """Every key's parsed value (None if it has no default and was not
    given) and the set of keys given, from ``--config`` and the command line;
    a parser's ValueError becomes a ConfigError naming the key."""
    pairs = read_config_file(args.config) if args.config is not None else {}
    given: dict[str, str] = {}
    for item in args.pairs:
        _add_pair(given, item)
    pairs.update(given)
    unknown = set(pairs) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}; "
                          f"allowed: {', '.join(sorted(keys))}")
    values = {}
    for key, (parse, default, _) in keys.items():
        text = pairs.get(key, default)
        try:
            values[key] = None if text is None else parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}={text}: {exc}") from None
    return argparse.Namespace(**values), set(pairs)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write ``rows`` under ``header`` with one ``%`` template made from the
    cell types of the first row, which every row must share: ``%.17g`` for
    a float (round-trip exact), ``%s`` for an int or a label."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            template = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
            fh.writelines(template % tuple(row) for row in rows)


def write_json_mirror(path: str, header: list[str], rows: list[list]) -> None:
    payload = [dict(zip(header, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, allow_nan=True)
        fh.write("\n")


def _emit(args, header, rows) -> None:
    write_csv(args.out, header, rows)
    if getattr(args, "json", None) is not None:
        write_json_mirror(args.json, header, rows)


TIMESERIES_HEADER = ["step", "p_edge", "sx0", "sx1", "mean_n", "var_n", "norm"]
DISTRIBUTION_HEADER = ["n", "p_n", "re_a", "im_a", "re_b", "im_b"]
DIAGRAM_HEADER = ["theta1", "theta2", "nu0", "nu_pi", "delta0", "delta_pi", "status"]
SWEEP_HEADER = ["index", "theta1", "theta2", "phi", "p_edge", "predicted_zero",
                "predicted_pi", "status"]
RAMP_HEADER = ["nq", "p_edge_stable", "loss"]
EIGEN_HEADER = ["mode_class", "eigenphase", "edge_weight", "p0", "p1", "ratio10", "ratio21"]


def _timeseries_rows(table) -> list[list]:
    """TIMESERIES_HEADER rows of an observable table, row k after step k."""
    return [[k, *row] for k, row in enumerate(table.tolist())]


def cmd_walk(args, cfg, given) -> int:
    if not given:
        raise ConfigError("walk requires at least one key=value")
    params = lattice.BulkParams(cfg.theta1, cfg.theta2)
    table, state = analysis.walk_table(params, cfg.phi, cfg.steps, cfg.frame)
    _emit(args, TIMESERIES_HEADER, _timeseries_rows(table))
    if getattr(args, "dist_out", None) is not None:
        up, down = state.amps + 0.0  # an exact zero prints 0, never -0
        columns = (state.site_probabilities(), up.real, up.imag, down.real, down.imag)
        dist_rows = list(zip(range(state.n_max + 1), *(c.tolist() for c in columns)))
        write_csv(args.dist_out, DISTRIBUTION_HEADER, dist_rows)
    return EXIT_OK


def _sweep_point(index, theta1, theta2, phi, p_edge, b0, b_pi):
    """One sweep row: the point, its final P_edge and bound-state prediction."""
    return [index, theta1, theta2, phi.phi, p_edge, b0, b_pi, "ok"]


def cmd_sweep(args, cfg, given) -> int:
    if not given:
        raise ConfigError("sweep requires at least one key=value")
    points = len(cfg.theta1) * len(cfg.theta2)
    if points * cfg.steps**2 > MAX_STEPS**2:
        raise ConfigError(f"steps={cfg.steps}: {points} points of {cfg.steps} steps: "
                          f"must be <= one {MAX_STEPS}-step walk")
    grid = lattice.BulkParams(*np.array(list(itertools.product(cfg.theta1, cfg.theta2))).T)
    p_edge = analysis.sweep_edge_populations(grid, cfg.phi, cfg.steps).tolist()
    predicted = zip(*(b.tolist() for b in momentum.bound_state_channels(grid, cfg.phi)))
    rows = [_sweep_point(index, t1, t2, cfg.phi, p, *b) for index, (t1, t2, p, b)
            in enumerate(zip(grid.theta1.tolist(), grid.theta2.tolist(), p_edge, predicted))]
    _emit(args, SWEEP_HEADER, rows)
    return EXIT_OK


def cmd_quench(args, cfg, given) -> int:
    total = cfg.n0 + cfg.nq + 80 if cfg.total is None else cfg.total
    if not cfg.n0 + cfg.nq <= total <= MAX_STEPS:
        raise ConfigError(f"total={total}: must be in n0 + nq = {cfg.n0 + cfg.nq}..{MAX_STEPS}")
    if cfg.scenario is not None:
        defined = sorted(given - {"scenario", "n0", "nq", "total"})  # a scenario fixes the rest
        if defined:
            raise ConfigError(f"scenario= already defines {', '.join(defined)}")
        protocol = cfg.scenario.protocol(n0=cfg.n0, nq=cfg.nq, post=total - cfg.n0 - cfg.nq)
    else:
        for key in ("theta1_i", "theta2_i", "theta1_f", "theta2_f"):
            if getattr(cfg, key) is None:
                raise ConfigError(f"quench without scenario= needs {key}=")
        protocol = quench.QuenchProtocol(
            initial=lattice.BulkParams(cfg.theta1_i, cfg.theta2_i),
            final=lattice.BulkParams(cfg.theta1_f, cfg.theta2_f),
            phi_initial=cfg.phi_i, phi_final=cfg.phi_f,
            n0=cfg.n0, nq=cfg.nq, total_steps=total, kick=cfg.kick)
    _emit(args, TIMESERIES_HEADER, _timeseries_rows(quench.quench_table(protocol)))
    return EXIT_OK


def cmd_ramp(args, cfg, given) -> int:
    ramps, steps = len(set(cfg.nq_list)), cfg.n0 + max(cfg.nq_list) + cfg.post
    if ramps * steps**2 > MAX_STEPS**2:
        raise ConfigError(f"nq_list={','.join(map(str, cfg.nq_list))}: {ramps} ramps of "
                          f"n0 + max + post = {steps} steps: must be <= one {MAX_STEPS}-step walk")
    fit = quench.landau_zener_fit(cfg.scenario, cfg.nq_list, n0=cfg.n0, post=cfg.post)
    _emit(args, RAMP_HEADER, fit.curve)
    summary = {"beta": fit.beta, "amplitude": fit.amplitude,
               "r_squared": fit.r_squared, "delta_pi": fit.delta_pi}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_eigen(args, cfg, given) -> int:
    if not given:
        raise ConfigError("eigen requires at least one key=value")
    modes = analysis.edge_eigenmodes(lattice.BulkParams(cfg.theta1, cfg.theta2), cfg.phi,
                                     n_max=cfg.n_max)
    rows = []
    for m in modes:
        p = m.site_probabilities()
        rows.append([m.mode_class, m.eigenphase, m.edge_weight,
                     float(p[0]), float(p[1]),
                     float(p[1] / p[0]) if p[0] > 0 else float("nan"),
                     float(p[2] / p[1]) if p[1] > 0 else float("nan")])
    _emit(args, EIGEN_HEADER, rows)
    return EXIT_OK


def cmd_pulse_verify(args, cfg, given) -> int:
    config = pulse.PulseConfig(omega0=cfg.omega0, delta0=cfg.delta0, tau=cfg.tau,
                               integrator_step=cfg.dt)
    report = pulse.verify_cycle(lattice.BulkParams(cfg.theta1, cfg.theta2), cfg.phi,
                                cfg.n_max, config)
    text = json.dumps(dataclasses.asdict(report), indent=1, sort_keys=True)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if report.step_deviation > 1e-10 or report.leakage > 1e-10:
        return EXIT_NUMERIC
    return EXIT_OK


def _diagram_rows(params, gaps, label, transition) -> list:
    """DIAGRAM_HEADER rows of ``momentum.phase_diagram``'s columns."""
    nu0, nu_pi = np.where(transition, -1, [label.nu0, label.nu_pi]).tolist()
    return list(zip(params.theta1.tolist(), params.theta2.tolist(), nu0, nu_pi,
                    gaps.delta0.tolist(), gaps.delta_pi.tolist(),
                    np.where(transition, "transition", "ok").tolist()))


def cmd_phase_diagram(args, cfg, given) -> int:
    values = [cfg.lo + (cfg.hi - cfg.lo) * (i + 0.5) / cfg.grid for i in range(cfg.grid)]
    columns = momentum.phase_diagram(values, values, n_k=cfg.n_k,
                                     transition_tol=cfg.transition_tol)
    _emit(args, DIAGRAM_HEADER, _diagram_rows(*columns))
    return EXIT_OK


# Unused by every subcommand; kept for the benchmark's bindings until ROADMAP item 1 deletes them.
def _diagram_point(task):  # (index, theta1, theta2, n_k, transition_tol)
    return _diagram_rows(*momentum.phase_diagram([task[1]], [task[2]], task[3], task[4]))[0]


def _parallel_map(fn, tasks, workers: int | None):
    workers = workers or os.cpu_count() or 1
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _check_output_paths(args) -> None:
    """Reject an output path that is empty, cannot be written, or that another
    output option also names, before any work runs."""
    claimed: dict[str, str] = {}
    for option in ("out", "json", "dist_out"):
        path = getattr(args, option, None)
        if path is None:
            continue
        flag = "--" + option.replace("_", "-")
        if not path:
            raise ConfigError(f"{flag}: the path is empty")
        if os.path.isdir(path):
            raise ConfigError(f"{flag} {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"{flag} {path!r}: parent directory does not exist")
        resolved = os.path.realpath(path)
        if resolved in claimed:
            raise ConfigError(f"{flag} {path!r} names the same file as {claimed[resolved]}")
        claimed[resolved] = flag


# One key table per subcommand: key -> (parser, default text or None, help).
# A default is parsed like a value given on the command line.
_BULK_KEYS = {
    "theta1": (_ANGLE, "pi/2", "first coin angle"),
    "theta2": (_ANGLE, "0", "second coin angle"),
    "phi": (parse_phi, "0", "boundary phase (0 or pi)"),
}
WALK_KEYS = {
    **_BULK_KEYS,
    "steps": (_STEPS, "100", f"number of steps, <= {MAX_STEPS}"),
    "frame": (_FRAME, "chiral", "walk or chiral"),
}
SWEEP_KEYS = {
    "theta1": (_ANGLES, "pi/2", "fixed value or comma list"),
    "theta2": (_ANGLES, "0", "fixed value or comma list"),
    "phi": _BULK_KEYS["phi"],
    "steps": (_STEPS, "100", f"steps per point, <= {MAX_STEPS}"),
}
QUENCH_KEYS = {
    "theta1_i": (_ANGLE, None, "initial theta1 (needed without scenario)"),
    "theta2_i": (_ANGLE, None, "initial theta2 (needed without scenario)"),
    "theta1_f": (_ANGLE, None, "final theta1 (needed without scenario)"),
    "theta2_f": (_ANGLE, None, "final theta2 (needed without scenario)"),
    "phi_i": (parse_phi, "0", "initial boundary phase"),
    "phi_f": (parse_phi, "0", "final boundary phase"),
    "n0": (_POSITIVE, "20", "steps before the quench"),
    "nq": (_POSITIVE, "1", "ramp steps (1 = sudden)"),
    "total": (int, None, f"total steps, <= {MAX_STEPS} (default n0 + nq + 80)"),
    "kick": (_KICK, "none", "sigma_z kick site, or none"),
    "scenario": (quench.scenario, None,
                 "named catalog entry; it fixes the angle, phi and kick keys"),
}
RAMP_KEYS = {
    "scenario": (quench.scenario, "fig6c", "catalog entry"),
    "nq_list": (_DURATIONS, "1,2,3,4,6,8,10,12", "comma list of ramp steps"),
    "n0": (_POSITIVE, "20", "steps before the quench"),
    "post": (_checked(int, lambda n: n >= quench.PLATEAU_WINDOW - 1,
                      f"must be >= {quench.PLATEAU_WINDOW - 1}"), "80",
             f"steps after the ramp, >= {quench.PLATEAU_WINDOW - 1} for a plateau after it"),
}
EIGEN_KEYS = {**_BULK_KEYS, "n_max": (
    _checked(int, lambda n: 32 <= n <= MAX_EIGEN_N, f"must be in 32..{MAX_EIGEN_N}"), "64",
    f"lattice size (>= 32 for a clean edge spectrum, <= {MAX_EIGEN_N}: the dense oracle's limit)")}
PULSE_KEYS = {
    **_BULK_KEYS,
    "n_max": (_checked(int, lambda n: 2 <= n <= MAX_PULSE_N, f"must be in 2..{MAX_PULSE_N}"),
              "12", f"phonon cutoff, <= {MAX_PULSE_N}"),
    "omega0": (_POSITIVE_REAL, "1.0", "peak Rabi frequency"),
    "delta0": (_POSITIVE_REAL, "1.0", "peak detuning"),
    "tau": (_POSITIVE_REAL, "100.0", "passage duration"),
    "dt": (_POSITIVE_REAL, "0.004", "integrator step"),
}
DIAGRAM_KEYS = {
    "grid": (_GRID, "32", f"points per axis, <= {MAX_GRID}"),
    "lo": (_ANGLE, "-2pi", "lower angle bound"),
    "hi": (_ANGLE, "2pi", "upper angle bound"),
    "n_k": (_POSITIVE, "1024", "momentum grid"),
    "transition_tol": (_TOLERANCE, "0.01", "gap tolerance"),
}
COMMANDS = {
    "walk": (cmd_walk, WALK_KEYS, "single evolution time series"),
    "sweep": (cmd_sweep, SWEEP_KEYS, "final edge population over a parameter grid"),
    "quench": (cmd_quench, QUENCH_KEYS, "sudden or ramped quench time series"),
    "ramp": (cmd_ramp, RAMP_KEYS, "Landau-Zener sweep over ramp durations"),
    "eigen": (cmd_eigen, EIGEN_KEYS, "edge eigenmode table"),
    "pulse-verify": (cmd_pulse_verify, PULSE_KEYS, "six-step cycle verification report"),
    "phase-diagram": (cmd_phase_diagram, DIAGRAM_KEYS, "Z2 x Z2 labels over an angle grid"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockwalk",
        description="Boundary split-step walk experiments with deterministic CSV output.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, keys, summary) in COMMANDS.items():
        epilog = "keys (key=value, each at most once):" + "".join(
            f"\n  {key:<16}{text}" + ("" if default is None else f" (default {default})")
            for key, (_, default, text) in keys.items())
        p = sub.add_parser(name, help=summary, description=summary, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("pairs", nargs="*", metavar="key=value", help="the keys listed below")
        p.add_argument("--config", help="key=value file; the command line overrides it")
        if name == "pulse-verify":
            p.add_argument("--out", help="JSON report path (default: stdout)")
        else:
            p.add_argument("--out", required=True, help="CSV output path")
            p.add_argument("--json", help="optional JSON mirror path")
        if name == "walk":
            p.add_argument("--dist-out", help="final phonon distribution CSV")
        p.set_defaults(fn=handler, keys=keys)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: building it costs about
    twenty parses, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_output_paths(args)
        return args.fn(args, *resolve(args, args.keys))
    except (ValueError, lattice.SiteOutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (lattice.GuardBandViolation, momentum.GapClosed,
            pulse.StepTooCoarse, quench.InsufficientLoss) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
