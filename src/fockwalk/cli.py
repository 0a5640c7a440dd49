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
config file with one pair per line and '#' comments.

Exit codes: 0 success, 2 configuration error (running out of memory
included), 3 numeric-invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import sys

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
        value = float(m.group("coeff") or 1.0) * math.pi
        if m.group("div"):
            value /= float(m.group("div"))
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


def parse_angle_list(text: str) -> list[float]:
    return [parse_angle(part) for part in str(text).split(",") if part.strip()]


def read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def gather_config(args: argparse.Namespace, allowed: dict[str, str]) -> dict[str, str]:
    """Merge config file and key=value arguments, rejecting unknown keys."""
    pairs: dict[str, str] = {}
    if getattr(args, "config", None):
        pairs.update(read_config_file(args.config))
    for item in getattr(args, "pairs", []) or []:
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    unknown = set(pairs) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}; "
                          f"allowed: {', '.join(sorted(allowed))}")
    return pairs


def fmt(value) -> str:
    """Fixed 17-significant-digit float formatting (round-trip exact)."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_json_mirror(path: str, header: list[str], rows: list[list]) -> None:
    payload = [dict(zip(header, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, allow_nan=True)
        fh.write("\n")


def _emit(args, header, rows) -> None:
    write_csv(args.out, header, rows)
    if getattr(args, "json", None):
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


def cmd_walk(args) -> int:
    cfg = gather_config(args, {
        "theta1": "first coin angle", "theta2": "second coin angle",
        "phi": "boundary phase (0 or pi)", "steps": "number of steps",
        "frame": "walk or chiral",
    })
    if not cfg:
        raise ConfigError("walk requires at least theta1=, theta2=")
    params = lattice.BulkParams(parse_angle(cfg.get("theta1", "pi/2")),
                                parse_angle(cfg.get("theta2", "0")))
    phi = parse_phi(cfg.get("phi", "0"))
    steps = int(cfg.get("steps", "100"))
    table, state = analysis.walk_table(params, phi, steps, cfg.get("frame", "chiral"))
    _emit(args, TIMESERIES_HEADER, _timeseries_rows(table))
    if getattr(args, "dist_out", None):
        dist_rows = [[n, float(abs(state.up[n])**2 + abs(state.down[n])**2),
                      float(state.up[n].real), float(state.up[n].imag),
                      float(state.down[n].real), float(state.down[n].imag)]
                     for n in range(state.n_max + 1)]
        write_csv(args.dist_out, DISTRIBUTION_HEADER, dist_rows)
    return EXIT_OK


def _sweep_point(index, params, phi, p_edge):
    """One sweep row: the point, its final P_edge and the bound-state prediction."""
    try:
        try:
            b0, bpi = momentum.predict_bound_states(params, phi)
        except momentum.GapClosed:
            b0 = bpi = -1  # transition point: no static prediction
        return [index, params.theta1, params.theta2, phi.phi, p_edge, b0, bpi, "ok"]
    except Exception as exc:  # defensive per-row status
        return [index, params.theta1, params.theta2, phi.phi, float("nan"), -1, -1,
                f"error:{type(exc).__name__}"]


def cmd_sweep(args) -> int:
    cfg = gather_config(args, {
        "theta1": "fixed value or comma list", "theta2": "fixed value or comma list",
        "phi": "boundary phase", "steps": "steps per point",
    })
    if not cfg:
        raise ConfigError("sweep requires theta1= and theta2= (one may be a list)")
    t1s = parse_angle_list(cfg.get("theta1", "pi/2"))
    t2s = parse_angle_list(cfg.get("theta2", "0"))
    phi = parse_phi(cfg.get("phi", "0"))
    steps = int(cfg.get("steps", "100"))
    if not t1s or not t2s:
        raise ConfigError("theta1= and theta2= each need at least one angle")
    points = [lattice.BulkParams(t1, t2) for t1, t2 in itertools.product(t1s, t2s)]
    p_edge = analysis.sweep_edge_populations(points, phi, steps)
    rows = [_sweep_point(index, params, phi, p)
            for index, (params, p) in enumerate(zip(points, p_edge.tolist()))]
    _emit(args, SWEEP_HEADER, rows)
    if any(str(r[-1]).startswith("error") for r in rows):
        return EXIT_NUMERIC
    return EXIT_OK


# keys a named quench scenario fixes itself; only n0, nq and total may vary
_SCENARIO_KEYS = {"theta1_i", "theta2_i", "theta1_f", "theta2_f", "phi_i", "phi_f", "kick"}


def cmd_quench(args) -> int:
    cfg = gather_config(args, {
        "theta1_i": "initial theta1", "theta2_i": "initial theta2",
        "theta1_f": "final theta1", "theta2_f": "final theta2",
        "phi_i": "initial boundary phase", "phi_f": "final boundary phase",
        "n0": "steps before the quench", "nq": "ramp steps (1 = sudden)",
        "total": "total steps", "kick": "site of the sigma_z kick, or none",
        "scenario": "named catalog entry (overrides angles)",
    })
    if not cfg:
        raise ConfigError("quench requires a scenario= or explicit angles")
    n0 = int(cfg.get("n0", "20"))
    nq = int(cfg.get("nq", "1"))
    total = int(cfg.get("total", str(n0 + nq + 80)))
    if "scenario" in cfg:
        defined = sorted(set(cfg) & _SCENARIO_KEYS)
        if defined:
            raise ConfigError(f"scenario= already defines {', '.join(defined)}")
        protocol = quench.scenario(cfg["scenario"]).protocol(n0=n0, nq=nq,
                                                             post=total - n0 - nq)
    else:
        for key in ("theta1_i", "theta2_i", "theta1_f", "theta2_f"):
            if key not in cfg:
                raise ConfigError(f"quench without scenario= needs {key}=")
        kick = cfg.get("kick", "none")
        protocol = quench.QuenchProtocol(
            initial=lattice.BulkParams(parse_angle(cfg["theta1_i"]), parse_angle(cfg["theta2_i"])),
            final=lattice.BulkParams(parse_angle(cfg["theta1_f"]), parse_angle(cfg["theta2_f"])),
            phi_initial=parse_phi(cfg.get("phi_i", "0")),
            phi_final=parse_phi(cfg.get("phi_f", "0")),
            n0=n0, nq=nq, total_steps=total,
            kick=None if kick == "none" else int(kick))
    _emit(args, TIMESERIES_HEADER, _timeseries_rows(quench.quench_table(protocol)))
    return EXIT_OK


def cmd_ramp(args) -> int:
    cfg = gather_config(args, {
        "scenario": "catalog entry, default fig6c", "nq_list": "comma list of ramp steps",
        "n0": "steps before the quench", "post": "steps after the ramp",
    })
    scenario = quench.scenario(cfg.get("scenario", "fig6c"))
    nq_list = [int(x) for x in cfg.get("nq_list", "1,2,3,4,6,8,10,12").split(",")]
    fit = quench.landau_zener_fit(scenario, nq_list,
                                  n0=int(cfg.get("n0", "20")),
                                  post=int(cfg.get("post", "80")))
    rows = [[nq, p, loss] for nq, p, loss in fit.curve]
    _emit(args, RAMP_HEADER, rows)
    summary = {"beta": fit.beta, "amplitude": fit.amplitude,
               "r_squared": fit.r_squared, "delta_pi": fit.delta_pi}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_eigen(args) -> int:
    cfg = gather_config(args, {
        "theta1": "first coin angle", "theta2": "second coin angle",
        "phi": "boundary phase", "n_max": "lattice size",
    })
    if not cfg:
        raise ConfigError("eigen requires theta1= and theta2=")
    params = lattice.BulkParams(parse_angle(cfg.get("theta1", "pi/2")),
                                parse_angle(cfg.get("theta2", "0")))
    phi = parse_phi(cfg.get("phi", "0"))
    modes = analysis.edge_eigenmodes(params, phi, n_max=int(cfg.get("n_max", "64")))
    rows = []
    for m in modes:
        p = m.site_probabilities()
        rows.append([m.mode_class, m.eigenphase, m.edge_weight,
                     float(p[0]), float(p[1]),
                     float(p[1] / p[0]) if p[0] > 0 else float("nan"),
                     float(p[2] / p[1]) if p[1] > 0 else float("nan")])
    _emit(args, EIGEN_HEADER, rows)
    return EXIT_OK


def cmd_pulse_verify(args) -> int:
    cfg = gather_config(args, {
        "theta1": "first coin angle", "theta2": "second coin angle",
        "phi": "boundary phase", "n_max": "phonon cutoff",
        "omega0": "peak Rabi frequency", "delta0": "peak detuning",
        "tau": "passage duration", "dt": "integrator step",
    })
    params = lattice.BulkParams(parse_angle(cfg.get("theta1", "pi/2")),
                                parse_angle(cfg.get("theta2", "0")))
    phi = parse_phi(cfg.get("phi", "0"))
    config = pulse.PulseConfig(omega0=float(cfg.get("omega0", "1.0")),
                               delta0=float(cfg.get("delta0", "1.0")),
                               tau=float(cfg.get("tau", "100.0")),
                               integrator_step=float(cfg.get("dt", "0.004")))
    report = pulse.verify_cycle(params, phi, int(cfg.get("n_max", "12")), config)
    text = json.dumps(dataclasses.asdict(report), indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if report.step_deviation > 1e-10 or report.leakage > 1e-10:
        return EXIT_NUMERIC
    return EXIT_OK


def _diagram_point(task):
    index, t1, t2, n_k, tol = task
    pt = momentum.phase_diagram([t1], [t2], n_k=n_k, transition_tol=tol)[0]
    if pt.status == "ok":
        return [index, t1, t2, pt.label.nu0, pt.label.nu_pi,
                pt.gaps.delta0, pt.gaps.delta_pi, "ok"]
    return [index, t1, t2, -1, -1, pt.gaps.delta0, pt.gaps.delta_pi, "transition"]


def cmd_phase_diagram(args) -> int:
    cfg = gather_config(args, {
        "grid": "points per axis", "lo": "lower angle bound", "hi": "upper bound",
        "n_k": "momentum grid", "transition_tol": "gap tolerance",
    })
    grid = int(cfg.get("grid", "32"))
    lo = parse_angle(cfg.get("lo", "-2pi"))
    hi = parse_angle(cfg.get("hi", "2pi"))
    n_k = int(cfg.get("n_k", "1024"))
    tol = float(cfg.get("transition_tol", "0.01"))
    if grid < 1 or n_k < 1:
        raise ConfigError(f"grid and n_k must be >= 1, got grid={grid}, n_k={n_k}")
    if not 0 <= tol < math.inf:
        raise ConfigError(f"transition_tol must be finite and >= 0, got {tol}")
    values = [lo + (hi - lo) * (i + 0.5) / grid for i in range(grid)]
    tasks = [(index, t1, t2, n_k, tol)
             for index, (t1, t2) in enumerate(itertools.product(values, values))]
    rows = [_diagram_point(t) for t in tasks]
    _emit(args, DIAGRAM_HEADER, [row[1:] for row in rows])
    return EXIT_OK


# Unused by every subcommand; kept for the benchmark's bindings until ROADMAP item 1 deletes it.
def _parallel_map(fn, tasks, workers: int | None):
    workers = workers or os.cpu_count() or 1
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _check_output_paths(args) -> None:
    """Reject an output path that cannot be written, or that another output
    option also names, before any work runs."""
    claimed: dict[str, str] = {}
    for option in ("out", "json", "dist_out"):
        path = getattr(args, option, None)
        if path is None:
            continue
        flag = "--" + option.replace("_", "-")
        if os.path.isdir(path):
            raise ConfigError(f"{flag} {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"{flag} {path!r}: parent directory does not exist")
        resolved = os.path.realpath(path)
        if resolved in claimed:
            raise ConfigError(f"{flag} {path!r} names the same file as {claimed[resolved]}")
        claimed[resolved] = flag


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockwalk",
        description="Boundary split-step walk experiments with deterministic CSV output.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("pairs", nargs="*", metavar="key=value",
                       help="experiment parameters")
        p.add_argument("--config", help="key=value file, one pair per line")
        if needs_out:
            p.add_argument("--out", required=True, help="CSV output path")
            p.add_argument("--json", help="optional JSON mirror path")

    p = sub.add_parser("walk", help="single evolution time series")
    common(p)
    p.add_argument("--dist-out", help="final phonon distribution CSV")
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("sweep", help="final edge population over a parameter grid")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("quench", help="sudden or ramped quench time series")
    common(p)
    p.set_defaults(fn=cmd_quench)

    p = sub.add_parser("ramp", help="Landau-Zener sweep over ramp durations")
    common(p)
    p.set_defaults(fn=cmd_ramp)

    p = sub.add_parser("eigen", help="edge eigenmode table")
    common(p)
    p.set_defaults(fn=cmd_eigen)

    p = sub.add_parser("pulse-verify", help="six-step cycle verification report")
    common(p, needs_out=False)
    p.add_argument("--out", help="JSON report path (default: stdout)")
    p.set_defaults(fn=cmd_pulse_verify)

    p = sub.add_parser("phase-diagram", help="Z2 x Z2 labels over an angle grid")
    common(p)
    p.set_defaults(fn=cmd_phase_diagram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_paths(args)
        return args.fn(args)
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
