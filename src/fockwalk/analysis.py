"""Observables and bound-state diagnostics for walker states.

Edge population, site-resolved spin readout, phonon moments, localization
fits of stable edge profiles, plateau detection, and a dense eigen-oracle
that diagonalizes the symmetric part of the real orthogonal one-step matrix
and classifies 0- and pi-energy edge modes by their residuals.  The oracle
is the independent reference the dynamical results are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import BoundaryPhase, BulkParams, WalkerState, build_step_matrix

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


def _edge_weight(p: np.ndarray) -> float:
    return float(p[0] + p[1])


def _spin_x(spinor: np.ndarray, weight: float) -> float:
    """<sigma_x> of one site's (a, b) given its weight |a|^2 + |b|^2."""
    a, b = spinor
    return float(2.0 * np.real(a * np.conj(b)) / weight)


def _moments(p: np.ndarray) -> tuple[float, float, float]:
    """(mean, variance, total) of unnormalized site probabilities."""
    total = float(np.sum(p))
    sites = np.arange(p.size)
    mean = float(np.dot(sites, p)) / total
    var = float(np.dot(sites**2, p)) / total - mean**2
    return mean, max(var, 0.0), total


def edge_population(state: WalkerState) -> float:
    """P_edge = p_0 + p_1."""
    return _edge_weight(state.site_probabilities())


def spin_expectation_x(state: WalkerState, site: int) -> float:
    """<sigma_x> conditioned on occupying ``site``."""
    spinor = state.amps[:, site]
    weight = float(np.sum(np.abs(spinor) ** 2))
    if weight < OCCUPATION_FLOOR:
        raise SiteUnoccupied(f"site {site} carries {weight:.2e}")
    return _spin_x(spinor, weight)


def phonon_moments(state: WalkerState) -> tuple[float, float]:
    """(mean, variance) of the phonon-number distribution."""
    return _moments(state.site_probabilities())[:2]


def observable_record(step: int, state: WalkerState) -> ObservableRecord:
    """Snapshot of the standard observables, all read from one array of site
    probabilities; unoccupied spins become nan."""
    p = state.site_probabilities()
    mean, var, total = _moments(p)
    sx0, sx1 = (_spin_x(state.amps[:, site], p[site]) if p[site] >= OCCUPATION_FLOOR
                else math.nan for site in (0, 1))
    return ObservableRecord(step=step, p_edge=_edge_weight(p), sx0=sx0, sx1=sx1,
                            mean_n=mean, var_n=var, norm=math.sqrt(total))


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
    values = np.asarray(list(series), dtype=float)
    for i in range(max(start, 0), values.size - window + 1):
        chunk = values[i:i + window]
        even, odd = chunk[0::2], chunk[1::2]
        if (even.max() - even.min() < tol) and (odd.max() - odd.min() < tol):
            return i
    return None
