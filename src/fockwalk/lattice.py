"""Walker states and the boundary split-step walk on a truncated phonon lattice.

The walk space is the half line n = 0..n_max (phonon number states); a walker
state keeps one complex spinor (a_n, b_n) per site.  One Floquet step applies,
in order: the first coin, extraction of the blocked spin-down amplitude at
n = 0, the signed down-shift, the second coin, the signed up-shift, and
re-injection of the blocked amplitude into (0, up) with phase e^{i*phi}.
Every operation is O(n_max).  ``build_step_matrix`` assembles the same step
as a dense unitary from two-site cut/uncut link operators and is used as the
oracle throughout the test suite.

Dynamics observed in the chiral time frame (the symmetrized ordering with
half of the first coin on each side of the step) is provided by
``chiral_step``; site populations are identical in both frames, only the
spin readout differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GUARD_BAND_TOL = 1e-8


class GuardBandViolation(RuntimeError):
    """Population reached the top two lattice sites; the truncation is no
    longer unobservable and one more step would wrap amplitude past it."""


class SiteOutOfRange(IndexError):
    """Requested site index lies outside 0..n_max."""


@dataclass(frozen=True)
class BulkParams:
    """Coin angles (theta1, theta2) in radians, stored unwrapped."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ValueError("coin angles must be finite")


@dataclass(frozen=True)
class BoundaryPhase:
    """Boundary phase phi; particle-hole symmetry restricts it to 0 or pi."""

    phi: float

    def __post_init__(self):
        if self.phi not in (0.0, math.pi):
            raise ValueError("boundary phase must be exactly 0 or pi")

    @property
    def sign(self) -> float:
        """e^{i*phi} as a real number (+1 or -1)."""
        return 1.0 if self.phi == 0.0 else -1.0

    def flipped(self) -> "BoundaryPhase":
        return BoundaryPhase(math.pi if self.phi == 0.0 else 0.0)


PHI_ZERO = BoundaryPhase(0.0)
PHI_PI = BoundaryPhase(math.pi)


@dataclass
class WalkerState:
    """Spinor amplitudes on sites 0..n_max: ``up[n]`` = a_n, ``down[n]`` = b_n."""

    up: np.ndarray
    down: np.ndarray
    step_count: int
    n_max: int

    def __post_init__(self):
        self.up = np.asarray(self.up, dtype=complex)
        self.down = np.asarray(self.down, dtype=complex)
        if self.up.shape != (self.n_max + 1,) or self.down.shape != (self.n_max + 1,):
            raise ValueError("amplitude arrays must have length n_max + 1")

    def copy(self) -> "WalkerState":
        return WalkerState(self.up.copy(), self.down.copy(), self.step_count, self.n_max)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.up) ** 2 + np.abs(self.down) ** 2)))

    def site_probabilities(self) -> np.ndarray:
        """p_n = |a_n|^2 + |b_n|^2."""
        return np.abs(self.up) ** 2 + np.abs(self.down) ** 2

    def to_vector(self) -> np.ndarray:
        """Flatten to the dense-matrix basis: index(n, spin) = 2n + spin."""
        vec = np.empty(2 * (self.n_max + 1), dtype=complex)
        vec[0::2] = self.up
        vec[1::2] = self.down
        return vec

    @classmethod
    def from_vector(cls, vec: np.ndarray, step_count: int = 0) -> "WalkerState":
        vec = np.asarray(vec, dtype=complex)
        if vec.ndim != 1 or vec.size % 2:
            raise ValueError("vector length must be even")
        return cls(vec[0::2].copy(), vec[1::2].copy(), step_count, vec.size // 2 - 1)


def initial_state(n_max: int, site: int = 0, spin: str = "down") -> WalkerState:
    """Localized product state |site> (x) |spin>."""
    if not 0 <= site <= n_max:
        raise SiteOutOfRange(f"site {site} outside 0..{n_max}")
    up = np.zeros(n_max + 1, dtype=complex)
    down = np.zeros(n_max + 1, dtype=complex)
    if spin == "up":
        up[site] = 1.0
    elif spin == "down":
        down[site] = 1.0
    else:
        raise ValueError("spin must be 'up' or 'down'")
    return WalkerState(up, down, 0, n_max)


def coin_matrix(theta: float) -> np.ndarray:
    """exp(-i*sigma_y*theta/2) in the (up, down) basis."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def coin_rotation(state: WalkerState, theta: float) -> WalkerState:
    """Apply the coin at every site: (a, b) -> (c a - s b, s a + c b)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    up = c * state.up - s * state.down
    down = s * state.up + c * state.down
    return WalkerState(up, down, state.step_count, state.n_max)


def _check_guard_band(state: WalkerState) -> None:
    p = state.site_probabilities()
    if p[-1] >= GUARD_BAND_TOL or p[-2] >= GUARD_BAND_TOL:
        raise GuardBandViolation(
            f"population {max(p[-1], p[-2]):.3e} on the top two sites of "
            f"n_max={state.n_max}; enlarge the lattice"
        )


def _shift_cycle(up: np.ndarray, down: np.ndarray, theta2: float, phi: BoundaryPhase):
    """Steps 2-6 of the walk: extraction, signed shifts around the second
    coin, and boundary re-injection.  Mutates and returns the arrays."""
    blocked = down[0]
    down[0] = 0.0
    # spin-down moves one site toward the boundary, with a sign
    down[:-1] = -down[1:]
    down[-1] = 0.0
    c2, s2 = math.cos(theta2 / 2.0), math.sin(theta2 / 2.0)
    up, down = c2 * up - s2 * down, s2 * up + c2 * down
    # spin-up moves one site away from the boundary, with a sign
    up[1:] = -up[:-1]
    up[0] = phi.sign * blocked
    return up, down


def floquet_step(state: WalkerState, params: BulkParams, phi: BoundaryPhase) -> WalkerState:
    """One boundary walk step in the bare (laboratory) frame."""
    _check_guard_band(state)
    c1, s1 = math.cos(params.theta1 / 2.0), math.sin(params.theta1 / 2.0)
    up = c1 * state.up - s1 * state.down
    down = s1 * state.up + c1 * state.down
    up, down = _shift_cycle(up, down, params.theta2, phi)
    return WalkerState(up, down, state.step_count + 1, state.n_max)


def chiral_step(state: WalkerState, params: BulkParams, phi: BoundaryPhase) -> WalkerState:
    """One step in the chiral time frame: half of the first coin on each side.

    This is the similarity transform R(theta1/2) U R(-theta1/2) of the bare
    step, boundary handling included.  Site populations match the bare frame;
    the spin readout is the one for which bound states pin <sigma_x> to +/-1.
    """
    _check_guard_band(state)
    ch, sh = math.cos(params.theta1 / 4.0), math.sin(params.theta1 / 4.0)
    up = ch * state.up - sh * state.down
    down = sh * state.up + ch * state.down
    up, down = _shift_cycle(up, down, params.theta2, phi)
    up, down = ch * up - sh * down, sh * up + ch * down
    return WalkerState(up, down, state.step_count + 1, state.n_max)


def sigma_z_kick(state: WalkerState, site: int) -> WalkerState:
    """Flip the sign of the spin-down amplitude at one site (sigma_z there)."""
    if not 0 <= site <= state.n_max:
        raise SiteOutOfRange(f"site {site} outside 0..{state.n_max}")
    out = state.copy()
    out.down[site] = -out.down[site]
    return out


def evolve(state: WalkerState, params: BulkParams, phi: BoundaryPhase, steps: int,
           recorder=None, step=floquet_step) -> WalkerState:
    """Apply ``step`` repeatedly; ``recorder(k, state)`` runs after step k."""
    if state.n_max < steps + 2:
        raise GuardBandViolation(
            f"n_max={state.n_max} cannot hold {steps} steps plus the guard band"
        )
    current = state
    for k in range(1, steps + 1):
        current = step(current, params, phi)
        if recorder is not None:
            recorder(k, current)
    return current


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


def build_step_matrix(params: BulkParams, phi: BoundaryPhase, n_max: int,
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
