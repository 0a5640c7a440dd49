"""Observables and bound-state diagnostics for walker states.

Edge population, site-resolved spin readout, phonon moments, the per-step
observable table of a trajectory, the final edge population of every point
of a parameter sweep, localization fits of stable edge profiles, plateau
detection, and a dense eigen-oracle that diagonalizes the symmetric part of
the real orthogonal one-step matrix and classifies 0- and pi-energy edge
modes by their residuals.  The oracle is the independent reference the
dynamical results are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import (
    _BLOCK_BYTES,
    BoundaryPhase,
    BulkParams,
    WalkerState,
    _advance,
    _coin_stack,
    _trajectory,
    build_step_matrix,
    coin_matrix,
    initial_state,
)

EIGENPHASE_TOL = 1e-6
OCCUPATION_FLOOR = 1e-9


class SiteUnoccupied(RuntimeError):
    """Too little population on the site for a conditional spin readout."""


class InsufficientSupport(RuntimeError):
    """Not enough sites above the probability floor to fit a decay length."""


@dataclass(frozen=True)
class ObservableRecord:
    step: int
    p_edge: float
    sx0: float  # nan when site 0 is unoccupied
    sx1: float
    mean_n: float
    var_n: float
    norm: float


@dataclass(frozen=True)
class EigenMode:
    eigenphase: float
    amplitudes: np.ndarray  # flattened (site, spin) vector
    edge_weight: float
    mode_class: str  # "zero" or "pi"

    def site_probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes[0::2]) ** 2 + np.abs(self.amplitudes[1::2]) ** 2


@dataclass(frozen=True)
class LocalizationFit:
    lam: float          # decay length: p_n ~ exp(-n / lam)
    ratio_even: float   # fitted p_{n+2} / p_n
    r_squared: float


def edge_population(state: WalkerState) -> float:
    """P_edge = p_0 + p_1."""
    p = state.site_probabilities()
    return float(p[0] + p[1])


def spin_expectation_x(state: WalkerState, site: int) -> float:
    """<sigma_x> conditioned on occupying ``site``."""
    spinor = state.amps[:, site]
    weight = float(np.sum(np.abs(spinor) ** 2))
    if weight < OCCUPATION_FLOOR:
        raise SiteUnoccupied(f"site {site} carries {weight:.2e}")
    a, b = spinor
    return float(2.0 * np.real(a * np.conj(b)) / weight)


def phonon_moments(state: WalkerState) -> tuple[float, float]:
    """(mean, variance) of the phonon-number distribution."""
    p = state.site_probabilities()
    total = float(np.sum(p))
    sites = np.arange(p.size)
    mean = float(np.dot(sites, p)) / total
    var = float(np.dot(sites**2, p)) / total - mean**2
    return mean, max(var, 0.0)


def observable_table(states: np.ndarray) -> np.ndarray:
    """The standard observables of a (K, 2, N) block of states, one row each.

    Columns: p_edge, sx0, sx1 (<sigma_x> at sites 0 and 1, nan where the
    site carries less than OCCUPATION_FLOOR), mean_n, var_n and norm, all
    read from one array of site probabilities.  Real and complex states
    alike; the chunked ``walk`` and ``quench`` time series are built from it.
    """
    weights = np.abs(states) ** 2
    p = weights[:, 0] + weights[:, 1]
    total = p.sum(axis=1)
    sites = np.arange(p.shape[1], dtype=float)
    table = np.empty((len(p), 6))
    table[:, 0] = p[:, 0] + p[:, 1]
    edge = p[:, :2]
    spin = 2.0 * np.real(states[:, 0, :2] * np.conj(states[:, 1, :2]))
    table[:, 1:3] = math.nan
    np.divide(spin, edge, out=table[:, 1:3], where=edge >= OCCUPATION_FLOOR)
    mean = (p * sites).sum(axis=1) / total
    table[:, 3] = mean
    table[:, 4] = np.maximum((p * sites**2).sum(axis=1) / total - mean**2, 0.0)
    table[:, 5] = np.sqrt(total)
    return table


def observable_record(step: int, state: WalkerState) -> ObservableRecord:
    """Snapshot of the standard observables of one state, the one-row view of
    ``observable_table``; unoccupied spins become nan.  ``run_quench`` and
    ``evolve`` recorders call it once per step, the reference path that the
    chunked time series are tested against."""
    return ObservableRecord(step, *observable_table(state.amps[None])[0].tolist())


def walk_table(params: BulkParams, phi: BoundaryPhase, steps: int,
               frame: str = "walk") -> tuple[np.ndarray, WalkerState]:
    """Time series of a walk from |0, down> and its final state.

    Row k of the (steps + 1, 6) table holds the observables of
    ``observable_table`` after step k.  The chunked counterpart of ``evolve``
    with an ``observable_record`` recorder on an n_max = steps + 2 lattice,
    stepping with ``floquet_step`` (``frame="walk"``) or ``chiral_step``
    (``frame="chiral"``); those per-step functions are its reference.
    """
    if frame not in ("walk", "chiral"):
        raise ValueError(f"frame must be walk or chiral, got {frame!r}")
    start = initial_state(steps + 2)
    first = coin_matrix(params.theta1 / 2.0 if frame == "chiral" else params.theta1)
    tables = []
    for block in _trajectory(start.amps, first, coin_matrix(params.theta2),
                             [phi.sign] * steps, frame):
        tables.append(observable_table(block))
    return np.concatenate(tables), WalkerState(block[-1], steps)


def sweep_edge_populations(points, phi: BoundaryPhase, steps: int) -> np.ndarray:
    """Final P_edge of a chiral-frame walk from |0, down> at every point.

    One value per ``BulkParams`` of ``points``: the batched counterpart of
    ``edge_population(evolve(initial_state(steps + 2), params, phi, steps,
    step=chiral_step))``, its per-point reference.  The points step together
    as (R, 2, steps + 3) stacks of walkers with per-row coins and one shared
    phi, R rows at a time with each stack within ``_BLOCK_BYTES``, so memory
    does not grow with the number of points.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    angles = np.array([(p.theta1, p.theta2) for p in points], dtype=float).reshape(-1, 2)
    # sized once instead of a guard scan per step: from site 0 the light cone
    # reaches site steps + 1 at most, so the top two sites stay empty
    n_sites = steps + 3
    rows = max(1, _BLOCK_BYTES // (2 * n_sites * 8))
    p_edge = np.empty(len(angles))
    for lo in range(0, len(angles), rows):
        chunk = angles[lo:lo + rows]
        half, second = _coin_stack(chunk[:, 0] / 2.0), _coin_stack(chunk[:, 1])
        amps = np.zeros((len(chunk), 2, n_sites))
        amps[:, 1, 0] = 1.0
        for _ in range(steps):
            amps = _advance(amps, half, second, phi.sign, "chiral")
        weights = amps[:, :, :2] ** 2  # summed in edge_population's order
        p = weights[:, 0] + weights[:, 1]
        p_edge[lo:lo + rows] = p[:, 0] + p[:, 1]
    return p_edge


def _localized_group_vectors(vectors: np.ndarray) -> np.ndarray:
    """Site-localized basis of an orthonormal (near-)degenerate eigenspace.

    Diagonalizes the mean-site operator inside it, so left- and right-edge
    partners separate cleanly.
    """
    sites = np.repeat(np.arange(vectors.shape[0] // 2), 2)
    _, w = np.linalg.eigh(vectors.T @ (sites[:, None] * vectors))
    return vectors @ w


def edge_eigenmodes(params: BulkParams, phi: BoundaryPhase, n_max: int = 64,
                    tol: float = EIGENPHASE_TOL) -> list[EigenMode]:
    """Diagonalize the dense step and return the left-edge 0/pi modes.

    U is real orthogonal, so (U + U^T)/2 has eigenvalues cos E and U's +-1
    eigenspaces, with real orthonormal eigenvectors v.  Those with
    ||Uv - v|| < tol (||Uv + v|| < tol) classify as "zero" ("pi") provided the
    mode carries more than half of its weight on sites 0..1; modes at the
    mirrored right edge are dropped by a left-half-weight filter.  U turns a
    mode by its eigenphase E in an invariant plane, so a mode's own residual r
    gives E = 2 asin(r/2) (zero) or pi - 2 asin(r/2) (pi), both in [0, pi].
    """
    if n_max < 32:
        raise ValueError("n_max must be at least 32 for a clean edge spectrum")
    if not 0 < tol < 1:
        # below 1, no vector passes both tests: ||Uv - v|| + ||Uv + v|| >= 2
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
    u = build_step_matrix(params, phi, n_max)
    _, vectors = np.linalg.eigh((u + u.T) / 2.0)
    turned = u @ vectors

    modes: list[EigenMode] = []
    half = (n_max + 1) // 2
    for target, sign in (("zero", 1.0), ("pi", -1.0)):
        group = np.linalg.norm(turned - sign * vectors, axis=0) < tol
        for v in _localized_group_vectors(vectors[:, group]).T:
            p = v[0::2] ** 2 + v[1::2] ** 2
            if float(np.sum(p[:half])) <= 0.5:
                continue  # lives at the mirrored right edge
            edge_weight = float(p[0] + p[1])
            if edge_weight <= 0.5:
                continue
            turn = 2.0 * math.asin(float(np.linalg.norm(u @ v - sign * v)) / 2.0)
            phase = turn if target == "zero" else math.pi - turn
            modes.append(EigenMode(eigenphase=phase, amplitudes=v,
                                   edge_weight=edge_weight, mode_class=target))
    modes.sort(key=lambda m: m.eigenphase)
    return modes


def successive_ratios(profile: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """p_{n+1} / p_n wherever both sit above the floor (nan elsewhere)."""
    profile = np.asarray(profile, dtype=float)
    ratios = np.full(profile.size - 1, np.nan)
    ok = (profile[:-1] > floor) & (profile[1:] > floor)
    ratios[ok] = profile[1:][ok] / profile[:-1][ok]
    return ratios


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept: (slope, intercept, R^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r_squared


def fit_localization(profile: np.ndarray, floor: float = 1e-12) -> LocalizationFit:
    """Log-linear least-squares decay length of a stable edge profile.

    Fits ln p_n over the leading window of sites above the floor and reports
    the positive decay length lam with p_n ~ exp(-n / lam), the implied
    even-site ratio, and the fit quality.
    """
    profile = np.asarray(profile, dtype=float)
    window = np.flatnonzero(profile > floor)
    if window.size < 6:
        raise InsufficientSupport(f"only {window.size} sites above {floor}")
    # keep the contiguous run that starts at the first admissible site
    run_end = window[0]
    for j in window:
        if j == run_end:
            run_end += 1
        else:
            break
    sites = np.arange(window[0], run_end)
    if sites.size < 6:
        raise InsufficientSupport(f"only {sites.size} sites above {floor}")
    slope, _, r_squared = linear_fit(sites, np.log(profile[sites]))
    if slope >= 0:
        raise InsufficientSupport("profile does not decay")
    return LocalizationFit(lam=-1.0 / slope, ratio_even=float(np.exp(2.0 * slope)),
                           r_squared=r_squared)


def detect_stabilization(series, window: int = 10, tol: float = 0.01,
                         start: int = 0) -> int | None:
    """Earliest index where the next ``window`` samples are flat within tol.

    Even- and odd-index subsequences of the window are tested separately so
    a period-2 oscillation between two constants still counts as stable.
    Returns None when no such index exists.
    """
    if window < 4:
        raise ValueError("window must be at least 4")
    values = np.asarray(series, dtype=float)
    first = max(start, 0)
    if values.size - window < first:
        return None
    # one row per start index i >= first: values[i:i + window]
    windows = sliding_window_view(values[first:], window)
    even, odd = windows[:, 0::2], windows[:, 1::2]
    flat = ((even.max(axis=1) - even.min(axis=1) < tol)
            & (odd.max(axis=1) - odd.min(axis=1) < tol))
    hits = np.flatnonzero(flat)
    return first + int(hits[0]) if hits.size else None
