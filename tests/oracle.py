"""Test-side references that no code path of the package runs.

The k-space one-step unitaries of the bulk walk are the oracle of the
closed-form dispersion, gaps and windings in ``fockwalk.momentum``.
``dense_step_matrix`` assembles the finite lattice's one-step unitary by hand
from two-site cut and uncut link operators, in the bare or the chiral frame;
it is the oracle of ``lattice``'s step kernel and of ``build_step_matrix``,
which the kernel builds.  ``dense_edge_eigenmodes`` diagonalizes that dense
step and is the oracle of the closed-form ``analysis.edge_eigenmodes``:
it keeps the finite-size splitting of left- and right-edge partners, of order
q^n_max, that the semi-infinite closed form leaves out.
``assert_close_to_chiral_steps`` holds the bound within which a batched
chiral-frame time series, stepped with merged coins, matches one
``chiral_step`` per step.  ``shifted_step`` is the bare step with unfolded
coins and explicit signed shifts, the reference of ``lattice``'s step kernel.
"""

import math

import numpy as np

from fockwalk.analysis import EIGENPHASE_TOL, EigenMode, _edge_populations
from fockwalk.lattice import (
    BoundaryPhase,
    BulkParams,
    _site_probabilities,
    coin_matrix,
)
from fockwalk.momentum import TimeFrame


def _shift_up(k):
    return np.array([[np.exp(-1j * k), 0.0], [0.0, 1.0]])


def _shift_down(k):
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * k)]])


def bulk_unitary_k(params: BulkParams, k: float) -> np.ndarray:
    """One-step unitary at momentum k: S_up(k) R(theta2) S_dn(k) R(theta1)."""
    return (_shift_up(k) @ coin_matrix(params.theta2)
            @ _shift_down(k) @ coin_matrix(params.theta1))


def time_frame_unitary_k(params: BulkParams, frame: TimeFrame, k: float) -> np.ndarray:
    """Chiral-frame unitary at momentum k (same eigenphases as the bare step)."""
    if frame is TimeFrame.F1:
        half = coin_matrix(params.theta1 / 2.0)
        return half @ _shift_up(k) @ coin_matrix(params.theta2) @ _shift_down(k) @ half
    half = coin_matrix(params.theta2 / 2.0)
    return half @ _shift_down(k) @ coin_matrix(params.theta1) @ _shift_up(k) @ half


# A merged-coin chiral trajectory and the per-step ``chiral_step`` path
# round differently, by about 1e-16 per step and amplitude; these bounds hold
# for walks of up to ~400 steps with about tenfold margin.  sx0 and sx1 divide
# by a site population that may be as small as OCCUPATION_FLOOR.
MERGED_TOL = {"p_edge": 1e-12, "sx": 1e-10, "moments": 1e-12, "norm": 1e-12, "amps": 1e-12}


def assert_close_to_chiral_steps(table, want):
    """Observable rows (p_edge, sx0, sx1, mean_n, var_n, norm) of a merged-coin
    chiral trajectory against those of one ``chiral_step`` per step: nan in the
    same places, the rest within ``MERGED_TOL`` (mean_n and var_n relative to
    max(1, |value|))."""
    table, want = np.asarray(table), np.asarray(want)
    assert table.shape == want.shape
    np.testing.assert_array_equal(np.isnan(table), np.isnan(want))
    table, want = np.nan_to_num(table), np.nan_to_num(want)
    moved = np.abs(table - want)
    moved[:, 3:5] /= np.maximum(1.0, np.abs(want[:, 3:5]))
    for column, bound in ((0, "p_edge"), (1, "sx"), (2, "sx"), (3, "moments"),
                          (4, "moments"), (5, "norm")):
        assert moved[:, column].max(initial=0.0) <= MERGED_TOL[bound], bound


def shifted_step(amps: np.ndarray, first: np.ndarray, second: np.ndarray,
                 sign: float) -> np.ndarray:
    """One bare walk step of a (..., 2, N) array with (..., 2, 2) coins, step by
    step: first coin, blocked spin-down amplitude, signed down-shift, second
    coin, signed up-shift, re-injection with e^{i*phi} = ``sign``."""
    amps = first @ amps
    sites = amps.T  # (site, spin, ...): indexes any stack shape without an Ellipsis
    blocked = sign * sites[0, 1]
    sites[:-1, 1] = -sites[1:, 1]
    sites[-1, 1] = 0.0
    amps = second @ amps
    sites = amps.T
    sites[1:, 0] = -sites[:-1, 0]
    sites[0, 0] = blocked
    return amps


def _cut_link_core(theta2: float, phi: BoundaryPhase, n_max: int) -> np.ndarray:
    """Everything after the first coin, as a dense matrix.

    Assembled from uncut links S_{n,n+1} and cut links C_{n,n+1} with an
    overall minus sign, the boundary cut link at n = -1 weighted by e^{i*phi},
    and a mirrored cut link closing the truncation edge (phi_right = 0) so
    the matrix stays exactly unitary.
    """
    dim = 2 * (n_max + 1)
    m = np.zeros((dim, dim))
    c2, s2 = math.cos(theta2 / 2.0), math.sin(theta2 / 2.0)

    def iu(n):
        return 2 * n

    def idn(n):
        return 2 * n + 1

    for n in range(n_max):
        m[idn(n), idn(n + 1)] += -c2      # S: |n,dn><n+1,dn|
        m[iu(n + 1), iu(n)] += -c2        # S: |n+1,up><n,up|
        m[iu(n + 1), idn(n + 1)] += -s2   # C: |n+1,up><n+1,dn|
        m[idn(n), iu(n)] += s2            # C: -|n,dn><n,up|
    m[iu(0), idn(0)] += phi.sign          # boundary cut link, e^{i*phi}
    m[idn(n_max), iu(n_max)] += -1.0      # mirrored cut link at the top
    return m


def dense_step_matrix(params: BulkParams, phi: BoundaryPhase, n_max: int,
                      frame: str = "walk") -> np.ndarray:
    """Dense one-step unitary on sites 0..n_max, basis index(n, spin) = 2n + spin.

    ``frame="walk"`` gives the bare step; ``frame="chiral"`` the symmetrized
    time frame (same spectrum, spin basis rotated by half the first coin).
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    core = _cut_link_core(params.theta2, phi, n_max)
    eye = np.eye(n_max + 1)
    if frame == "walk":
        return core @ np.kron(eye, coin_matrix(params.theta1))
    if frame == "chiral":
        half = np.kron(eye, coin_matrix(params.theta1 / 2.0))
        return half @ core @ half
    raise ValueError(f"unknown frame {frame!r}")


def _localized_group_vectors(vectors: np.ndarray) -> np.ndarray:
    """Site-localized basis of an orthonormal (near-)degenerate eigenspace.

    Diagonalizes the mean-site operator inside it, so left- and right-edge
    partners separate cleanly.
    """
    sites = np.repeat(np.arange(vectors.shape[0] // 2), 2)
    _, w = np.linalg.eigh(vectors.T @ (sites[:, None] * vectors))
    return vectors @ w


def dense_edge_eigenmodes(params: BulkParams, phi: BoundaryPhase, n_max: int = 64,
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
    u = dense_step_matrix(params, phi, n_max)
    _, vectors = np.linalg.eigh((u + u.T) / 2.0)
    turned = u @ vectors

    modes: list[EigenMode] = []
    half = (n_max + 1) // 2
    for target, sign in (("zero", 1.0), ("pi", -1.0)):
        group = np.linalg.norm(turned - sign * vectors, axis=0) < tol
        for v in _localized_group_vectors(vectors[:, group]).T:
            p = _site_probabilities(v.reshape(-1, 2).T)
            if float(np.sum(p[:half])) <= 0.5:
                continue  # lives at the mirrored right edge
            edge_weight = float(_edge_populations(p))
            if edge_weight <= 0.5:
                continue
            turn = 2.0 * math.asin(float(np.linalg.norm(u @ v - sign * v)) / 2.0)
            phase = turn if target == "zero" else math.pi - turn
            modes.append(EigenMode(eigenphase=phase, amplitudes=v,
                                   edge_weight=edge_weight, mode_class=target))
    modes.sort(key=lambda m: m.eigenphase)
    return modes
