"""Output checks: compact references at the reference seed, invariants at any seed.

A reference file entry holds the SHA-256 of the output and, per column,
either the digest of the column (integer, label and status columns, which
must match exactly) or a few numbers for a float column: its sum, its sum of
absolute values, its nan count and values at up to 16 evenly spaced rows.
An output whose digest matches passes at once; otherwise every column is
compared, floats within the tolerance stated for the column below.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# (absolute, relative) tolerance per float column and output kind; columns
# not listed must match exactly.
TOLERANCES = {
    "timeseries": {"p_edge": (1e-10, 0), "sx0": (1e-9, 0), "sx1": (1e-9, 0),
                   "mean_n": (0, 1e-9), "var_n": (0, 1e-9), "norm": (1e-12, 0)},
    "distribution": {c: (1e-12, 1e-9) for c in ("p_n", "re_a", "im_a", "re_b", "im_b")},
    "diagram": {"theta1": (1e-12, 0), "theta2": (1e-12, 0),
                "delta0": (1e-9, 0), "delta_pi": (1e-9, 0)},
    "sweep": {"theta1": (1e-12, 0), "theta2": (1e-12, 0), "phi": (1e-12, 0),
              "p_edge": (1e-10, 0)},
    "ramp": {"p_edge_stable": (1e-10, 0), "loss": (1e-9, 0)},
    "ramp-summary": {"beta": (0, 1e-6), "amplitude": (0, 1e-6),
                     "r_squared": (1e-8, 0), "delta_pi": (1e-9, 0)},
    "eigen": {"eigenphase": (1e-9, 0), "edge_weight": (1e-9, 0), "p0": (1e-9, 0),
              "p1": (1e-9, 0), "ratio10": (0, 1e-6), "ratio21": (0, 1e-6)},
    "pulse": {"unitarity_error": (1e-12, 0), "leakage": (1e-12, 0),
              "step_deviation": (1e-12, 0), "min_transfer": (1e-9, 0),
              "transfer_spread": (1e-9, 0), "fidelity_bound": (1e-9, 0),
              "adiabatic_margin": (0, 1e-9),
              **{f"transfer_{i}": (1e-9, 0) for i in range(64)}},
}
SAMPLES = 16
NORM_TOL = 1e-10


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_table(path: str, kind: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of an output, JSON outputs flattened to one row."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if kind in ("pulse", "ramp-summary"):
        payload = json.loads(text)
        transfers = payload.pop("transfer_probabilities", [])
        payload.update({f"transfer_{i}": p for i, p in enumerate(transfers)})
        header = list(payload)
        return header, [[str(payload[c]) for c in header]]
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _digest(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()


def _sample_rows(n: int) -> list[int]:
    if n <= SAMPLES:
        return list(range(n))
    return sorted({round(j * (n - 1) / (SAMPLES - 1)) for j in range(SAMPLES)})


def summarize(path: str, kind: str) -> dict:
    """Compact reference entry of one output file."""
    header, rows = read_table(path, kind)
    columns = {}
    for j, name in enumerate(header):
        values = [r[j] for r in rows]
        if name in TOLERANCES[kind]:
            floats = [float(v) for v in values]
            finite = [v for v in floats if not math.isnan(v)]
            columns[name] = {
                "sum": math.fsum(finite), "abs": math.fsum(abs(v) for v in finite),
                "nan": len(floats) - len(finite),
                "samples": [[i, values[i]] for i in _sample_rows(len(values))],
            }
        else:
            columns[name] = {"digest": _digest(values)}
    return {"sha256": sha256(path), "header": header, "rows": len(rows),
            "columns": columns}


def _close(value: float, ref: float, atol: float, rtol: float) -> bool:
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    return abs(value - ref) <= atol + rtol * abs(ref)


def compare(path: str, kind: str, ref: dict) -> list[str]:
    """Mismatches of one output against its reference entry (empty: it matches)."""
    if sha256(path) == ref["sha256"]:
        return []
    header, rows = read_table(path, kind)
    name = os.path.basename(path)
    if header != ref["header"]:
        return [f"{name}: header {header} != {ref['header']}"]
    if len(rows) != ref["rows"]:
        return [f"{name}: {len(rows)} rows, reference has {ref['rows']}"]
    problems = []
    for j, col in enumerate(header):
        values = [r[j] for r in rows]
        want = ref["columns"][col]
        if "digest" in want:
            if _digest(values) != want["digest"]:
                problems.append(f"{name}: column {col} differs")
            continue
        atol, rtol = TOLERANCES[kind][col]
        floats = [float(v) for v in values]
        finite = [v for v in floats if not math.isnan(v)]
        if len(floats) - len(finite) != want["nan"]:
            problems.append(f"{name}: column {col} nan count differs")
        bad = [i for i, v in want["samples"] if not _close(floats[i], float(v), atol, rtol)]
        if bad:
            problems.append(f"{name}: column {col} off at rows {bad[:5]}")
        total = math.fsum(finite)
        if abs(total - want["sum"]) > len(finite) * atol + rtol * want["abs"]:
            problems.append(f"{name}: column {col} sum {total!r} != {want['sum']!r}")
    return problems


def invariants(path: str, kind: str) -> list[str]:
    """Seed-independent properties every output of its kind must have."""
    header, rows = read_table(path, kind)
    name = os.path.basename(path)
    col = {c: [r[j] for r in rows] for j, c in enumerate(header)}
    problems = []
    if not rows and kind != "eigen":  # a phase without edge modes has none
        return [f"{name}: no rows"]
    if kind == "timeseries":
        drift = max(abs(float(v) - 1.0) for v in col["norm"])
        if drift > NORM_TOL:
            problems.append(f"{name}: norm drift {drift:.3e}")
        if col["step"] != [str(i) for i in range(len(rows))]:
            problems.append(f"{name}: steps are not 0..{len(rows) - 1}")
    elif kind == "distribution":
        drift = abs(math.fsum(float(v) for v in col["p_n"]) - 1.0)
        if drift > NORM_TOL:
            problems.append(f"{name}: total probability off by {drift:.3e}")
    elif kind == "diagram":
        for nu0, nupi, status in zip(col["nu0"], col["nu_pi"], col["status"]):
            ok = status == "ok" and nu0 in ("0", "1") and nupi in ("0", "1")
            if not (ok or (status == "transition" and nu0 == nupi == "-1")):
                problems.append(f"{name}: label ({nu0}, {nupi}) with status {status}")
                break
    elif kind == "sweep":
        for b0, bpi, status in zip(col["predicted_zero"], col["predicted_pi"], col["status"]):
            if status != "ok" or {b0, bpi} - {"0", "1", "-1"}:
                problems.append(f"{name}: row ({b0}, {bpi}, {status})")
                break
    elif kind == "eigen":
        if set(col["mode_class"]) - {"zero", "pi"}:
            problems.append(f"{name}: unknown mode class")
    elif kind == "pulse":
        if float(col["leakage"][0]) > NORM_TOL or float(col["step_deviation"][0]) > NORM_TOL:
            problems.append(f"{name}: compiled cycle deviates from the walk step")
    return problems


def check_invocation(inv, outdir: str, references: dict | None) -> list[str]:
    """All problems with one invocation's outputs; ``references`` maps output
    names to reference entries at the reference seed and is None otherwise."""
    problems = []
    for out in inv.files:
        path = os.path.join(outdir, out.name)
        if not os.path.exists(path):
            problems.append(f"{out.name}: missing")
            continue
        try:
            problems += invariants(path, out.kind)
            if references is not None:
                problems += compare(path, out.kind, references[out.name])
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"{out.name}: unreadable ({type(exc).__name__}: {exc})")
    return problems
