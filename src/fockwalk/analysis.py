"""Observables and bound-state diagnostics for walker states.

One table holds every per-step observable of a state: P_edge, <sigma_x> at
sites 0 and 1, the phonon moments and the norm (``observable_table`` for a
block of states, ``observable_record`` for one).  Also: the final P_edge of
every point of a parameter sweep, plateau detection, and the 0- and pi-energy
edge modes in closed form: one geometric profile per channel, kept if its
residual under the dense cut-link step is small, with no diagonalization (the
dense oracle and the localization fits of edge profiles are test-side).

``lattice._trajectory`` runs only here: ``_read_in_full`` reduces its blocks to
the observable table and last state (walk, quench), ``_read_at_edge`` to every
state's P_edge (ramp), and the sweep reads the last state of each of the
fewest equal stacks whose widest stepped state fits 2 x ``_BLOCK_BYTES``.
The table's moments are one fixed-order product over sites zero-padded to whole
``lattice._SITE_CHUNK``-site chunks, so trailing zero sites change no bit: a
state's row is the same on the full lattice and in any block of ``_trajectory``.
``_read_in_full`` owns one site-probability scratch per trajectory, as large as
the largest block's rows times its padded width (256 KB at 4003 sites), read
off the block plan that ``_trajectory`` then reuses, and
writes every block's sums into one table: ``_state_sums`` rewrites the scratch
rows it uses and zeroes their padding, so no block allocates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import (
    _BLOCK_BYTES,
    _SITE_CHUNK,
    BoundaryPhase,
    BulkParams,
    WalkerState,
    _block_plan,
    _cut_link_step,
    _site_probabilities,
    _stepped_widths,
    _trajectory,
    coin_matrix,
)

EIGENPHASE_TOL = 1e-6
OCCUPATION_FLOOR = 1e-9


class ObservableRecord(NamedTuple):
    step: int
    p_edge: float
    sx0: float  # nan when site 0 is unoccupied
    sx1: float
    mean_n: float
    var_n: float
    norm: float


class EigenMode(NamedTuple):
    eigenphase: float
    amplitudes: np.ndarray  # flattened (site, spin) vector
    edge_weight: float
    mode_class: str  # "zero" or "pi"

    def site_probabilities(self) -> np.ndarray:
        return _site_probabilities(self.amplitudes.reshape(-1, 2).T)


def _edge_populations(p: np.ndarray) -> np.ndarray:
    """P_edge = p_0 + p_1 from site probabilities (..., W); every P_edge reads it."""
    return p[..., 0] + p[..., 1]


def _padded(width: int) -> int:
    """W sites rounded up to whole ``_SITE_CHUNK``-site chunks."""
    return -(-width // _SITE_CHUNK) * _SITE_CHUNK


def _moment_weights(width: int) -> np.ndarray:
    """Rows 1, n and n^2 of sites 0..W-1, padded to whole ``_SITE_CHUNK``-site chunks."""
    sites = np.arange(_padded(width), dtype=float)
    return np.stack([np.ones_like(sites), sites, sites * sites])


def _state_sums(states: np.ndarray, turns: np.ndarray | None, weights: np.ndarray,
                scratch: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The reductions behind ``observable_table`` of a (K, 2, W) block of
    states, one (K, 7) row each, written into ``out`` if given: p_0, p_1,
    2 Re(a_n conj(b_n)) at n = 0, 1, and sum_n p_n, sum_n n p_n and
    sum_n n^2 p_n; ``lattice._trajectory``'s readout rotations ``turns``, if
    any, turn the spins at n = 0, 1.

    The moments are one fixed-order product (``np.einsum``; BLAS sums a K-row
    block in another order than a row alone) of the site probabilities, padded
    to whole ``_SITE_CHUNK``-site chunks, with ``_moment_weights`` of W or more
    sites: trailing zero sites change no bit, in any block or at any width.
    The site probabilities go into the first K x P doubles of the flat
    ``scratch`` (P = W padded), which the caller owns and may pass again for
    the next block: every one of them is rewritten, the padding sites
    W..P - 1 with zeros, so a wider earlier block leaves nothing behind.
    Without ``scratch``, a fresh array is made.  Real states are squared by
    ``np.einsum`` straight into the scratch, with no temporary and the same
    bits as ``_site_probabilities``.
    """
    rows, _, width = states.shape
    padded = _padded(width)
    flat = np.empty(rows * padded) if scratch is None else scratch[:rows * padded]
    p = flat.reshape(rows, padded)
    if np.iscomplexobj(states):
        _site_probabilities(states, out=p[:, :width])
    else:
        np.einsum("kiw,kiw->kw", states, states, out=p[:, :width])
    p[:, width:] = 0.0
    edge = states[..., :2] if turns is None else turns @ states[..., :2]
    out = np.empty((rows, 7)) if out is None else out
    out[:, :2] = p[:, :2]
    down = np.conj(edge[:, 1]) if np.iscomplexobj(edge) else edge[:, 1]  # conj copies
    out[:, 2:4] = 2.0 * np.real(edge[:, 0] * down)
    out[:, 4:] = np.einsum("kw,jw->kj", p, weights[:, :padded])
    return out


def _observables(sums: np.ndarray) -> np.ndarray:
    """``observable_table``'s rows from the rows of ``_state_sums``."""
    table = np.empty((len(sums), 6))
    edge = sums[:, :2]
    table[:, 0] = _edge_populations(edge)
    table[:, 1:3] = math.nan
    np.divide(sums[:, 2:4], edge, out=table[:, 1:3], where=edge >= OCCUPATION_FLOOR)
    total, first, second = sums[:, 4:].T
    mean = first / total
    table[:, 3] = mean
    table[:, 4] = np.maximum(second / total - mean**2, 0.0)
    table[:, 5] = np.sqrt(total)
    return table


def observable_table(states: np.ndarray) -> np.ndarray:
    """The standard observables of a (K, 2, W) block of states, one row each.

    Columns: p_edge, sx0, sx1 (<sigma_x> at sites 0 and 1, nan where the
    site carries less than OCCUPATION_FLOOR), mean_n, var_n and norm, all
    read from one array of site probabilities.  Real and complex states
    alike.  A row depends on the state alone, not on how far it is
    zero-padded or on which block holds it.  The chunked ``walk`` and
    ``quench`` time series reduce block by block with ``_state_sums`` and
    finish all rows at once with ``_observables``.
    """
    return _observables(_state_sums(states, None, _moment_weights(states.shape[-1])))


def observable_record(step: int, state: WalkerState) -> ObservableRecord:
    """Snapshot of the standard observables of one state, the one-row view of
    ``observable_table``; unoccupied spins become nan.  ``run_quench`` calls
    it once per step, the per-step reference path that the chunked time
    series are tested against."""
    return ObservableRecord(step, *observable_table(state.amps[None])[0].tolist())


def _read_in_full(angles: np.ndarray, signs, frame: str, kick=None):
    """The observable table of every state of one walker's ``_trajectory``
    and its last state, turned back to the frame: ((steps + 1, 6), (2, N)).
    Every block is reduced into one site-probability scratch, sized for the
    largest block of the block plan that the trajectory then reuses, and one
    array of all its sums."""
    steps = len(signs)
    weights = _moment_weights(steps + 3)
    plan = _block_plan(steps, None, 1)
    scratch = np.empty(max(rows * _padded(sites) for rows, sites, _ in plan))
    sums, t = np.empty((steps + 1, 7)), 0
    for states, turns in _trajectory(angles, signs, frame, kick):
        _state_sums(states, turns, weights, scratch, sums[t:t + len(states)])
        t += len(states)
    final = np.zeros((2, steps + 3))  # the sites beyond the last block are empty
    final[:, :states.shape[-1]] = states[-1] if turns is None else turns[-1] @ states[-1]
    return _observables(sums), final


def _read_at_edge(angles: np.ndarray, signs, kick=None) -> np.ndarray:
    """P_edge of every state of a chiral-frame ``_trajectory`` read on sites 0
    and 1 only (the double light cone, no readout rotations): (steps + 1,) +
    the stack of walkers."""
    return np.concatenate([_edge_populations(_site_probabilities(states[..., :2]))
                           for states, _ in _trajectory(angles, signs, "chiral", kick, 2)])


def walk_table(params: BulkParams, phi: BoundaryPhase, steps: int,
               frame: str = "walk") -> tuple[np.ndarray, WalkerState]:
    """Time series of a walk from |0, down> and its final state.

    Row k of the (steps + 1, 6) table holds the observables of
    ``observable_table`` after step k.  The chunked counterpart of reading
    ``observable_record`` after every step of ``floquet_step``
    (``frame="walk"``) or ``chiral_step`` (``frame="chiral"``) on an
    n_max = steps + 2 lattice; those per-step functions are its reference.
    """
    table, final = _read_in_full(np.array([[params.theta1, params.theta2]]),
                                 [phi.sign] * steps, frame)
    return table, WalkerState(final, steps)


def sweep_edge_populations(points: BulkParams, phi: BoundaryPhase, steps: int) -> np.ndarray:
    """Final P_edge of a chiral-frame walk from |0, down> at every point.

    One value per point of the array-valued ``points``: the batched
    counterpart of ``steps`` calls of ``chiral_step`` from |0, down> on an
    n_max = steps + 2 lattice, read by ``observable_record``, its per-point
    reference.
    The points run through ``_trajectory`` with per-row angles and one
    shared phi, read on sites 0 and 1 only, so state t is stepped on the
    sites that can still reach them (the double light cone, at most about
    half the lattice), as the fewest equal stacks whose widest stepped state
    fits 2 x ``_BLOCK_BYTES`` (2 of 128 walkers for 256 points at 100 steps),
    so memory does not grow with the number of points.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    angles = np.stack([points.theta1, points.theta2], dtype=float).reshape(1, 2, -1)
    cap = max(1, 2 * _BLOCK_BYTES // (2 * int(_stepped_widths(steps, 2).max()) * 8))
    p_edge = np.empty(angles.shape[-1])
    lo = 0
    for left in range(-(-len(p_edge) // cap), 0, -1):
        hi = lo + -(-(len(p_edge) - lo) // left)  # equal stacks, the first ones 1 larger
        for states, turns in _trajectory(angles[..., lo:hi], [phi.sign] * steps,
                                         "chiral", reads=2):
            pass  # only the last state is read
        p_edge[lo:hi] = _edge_populations(_site_probabilities(states[-1, ..., :2]))
        states = turns = None  # the last block is freed before the next stack steps
        lo = hi
    return p_edge


def edge_eigenmodes(params: BulkParams, phi: BoundaryPhase, n_max: int = 64,
                    tol: float = EIGENPHASE_TOL) -> list[EigenMode]:
    """The left-edge 0/pi modes on sites 0..n_max, in closed form.

    In the chiral frame, channel sigma = +1 ("zero") or -1 ("pi") has the mode
    rho^n (1, sigma e^{i*phi}): rho = -sigma x / (a + sqrt(a^2 - x^2)), a = 1 +
    sigma s1 s2, x = c1 c2 (s_i, c_i = sin, cos(theta_i/2)), is the root of the
    dispersion at cos E = sigma inside the unit circle; none exists if a^2 <= x^2.
    Its bare vector v, with the top site least-squares fitted to the mirrored cut
    link, is listed if r = ||Uv - sigma v|| < tol under ``build_step_matrix``'s U
    and p0 + p1 > 0.5, the dense oracle's two tests; E = 2 asin(r/2) (zero) or
    pi - 2 asin(r/2) (pi).
    """
    if n_max < 32:
        raise ValueError("n_max must be at least 32 for a clean edge spectrum")
    if not 0 < tol < 1:
        # below 1, no vector passes both tests: ||Uv - v|| + ||Uv + v|| >= 2
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
    h1, h2 = params.theta1 / 2.0, params.theta2 / 2.0
    s, x = math.sin(h1) * math.sin(h2), math.cos(h1) * math.cos(h2)
    modes: list[EigenMode] = []
    for target, sign in (("zero", 1.0), ("pi", -1.0)):
        a = 1.0 + sign * s
        if a * a <= x * x:
            continue
        alpha = (-sign * x / (a + math.sqrt(a * a - x * x))) ** np.arange(n_max + 1)
        trial = np.zeros((3, 2, n_max + 1))  # the mode, then unit spins on the top site
        trial[0] = coin_matrix(-h1) @ np.stack([alpha, sign * phi.sign * alpha])
        trial[1, 0, -1] = trial[2, 1, -1] = 1.0
        miss = (_cut_link_step(trial, params, phi) - sign * trial).reshape(3, -1)
        trial[0, :, -1] += np.linalg.lstsq(miss[1:].T, -miss[0], rcond=None)[0]
        v = trial[0] / np.linalg.norm(trial[0])
        edge_weight = float(_edge_populations(_site_probabilities(v)))
        residual = float(np.linalg.norm(_cut_link_step(v, params, phi) - sign * v))
        if residual >= tol or edge_weight <= 0.5:
            continue
        turn = 2.0 * math.asin(residual / 2.0)
        modes.append(EigenMode(turn if sign > 0 else math.pi - turn, v.T.flatten(),
                               edge_weight, target))
    return modes


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept: (slope, intercept, R^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r_squared


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
