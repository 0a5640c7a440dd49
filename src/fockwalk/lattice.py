"""Walker states and the boundary split-step walk on a truncated phonon lattice.

The walk space is the half line n = 0..n_max (phonon number states); a walker
state keeps its amplitudes in one (2, n_max+1) array, row 0 = spin up a_n and
row 1 = spin down b_n.  The coins are real rotations and phi is 0 or pi, so the
walk is real orthogonal: a real start stays real, and a complex state steps
through the same code.  The step kernel also steps a stack of walkers, a
(..., 2, N) array with one coin pair per walker, which the ramp sweep of
``quench`` and the parameter sweep of ``analysis`` use.  ``floquet_step``,
``chiral_step`` and ``evolve`` step one ``WalkerState`` at a time and are the
per-step reference path; the private ``_trajectory`` generator runs the same
kernel over a whole trajectory and hands its states out in blocks of
consecutive steps, which the ``walk`` and ``quench`` time series reduce to
observables block by block.

One Floquet step applies, in order: the first coin, extraction of the
blocked spin-down amplitude at n = 0, the signed down-shift, the second
coin, the signed up-shift, and re-injection of the blocked amplitude into
(0, up) with phase e^{i*phi}.  Every operation is O(n_max).
``build_step_matrix`` assembles the same step as a dense unitary from two-site
cut/uncut link operators and is used as the oracle throughout the test suite.

Dynamics observed in the chiral time frame (the symmetrized ordering with
half of the first coin on each side of the step) is provided by
``chiral_step``; site populations are identical in both frames, only the
spin readout differs.
"""

from __future__ import annotations

import itertools
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
    """Sites 0..n_max; ``up`` (a_n) and ``down`` (b_n) are writable rows of ``amps``."""

    amps: np.ndarray
    step_count: int

    def __post_init__(self):
        self.amps = np.asarray(self.amps, complex if np.iscomplexobj(self.amps) else float)
        if self.amps.ndim != 2 or self.amps.shape[0] != 2:
            raise ValueError(f"amplitudes must have shape (2, N), got {self.amps.shape}")

    @property
    def up(self) -> np.ndarray:
        return self.amps[0]

    @property
    def down(self) -> np.ndarray:
        return self.amps[1]

    @property
    def n_max(self) -> int:
        return self.amps.shape[1] - 1

    def copy(self) -> "WalkerState":
        return WalkerState(self.amps.copy(), self.step_count)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.site_probabilities())))

    def site_probabilities(self) -> np.ndarray:
        """p_n = |a_n|^2 + |b_n|^2."""
        weights = np.abs(self.amps) ** 2
        return weights[0] + weights[1]

    def to_vector(self) -> np.ndarray:
        """Flatten to the dense-matrix basis: index(n, spin) = 2n + spin."""
        return self.amps.T.flatten()  # a copy even for n_max = 0

    @classmethod
    def from_vector(cls, vec: np.ndarray, step_count: int = 0) -> "WalkerState":
        vec = np.asarray(vec)
        if vec.ndim != 1 or vec.size % 2:
            raise ValueError("vector length must be even")
        return cls(vec.reshape(-1, 2).T.copy(), step_count)


def initial_state(n_max: int, site: int = 0, spin: str = "down") -> WalkerState:
    """Localized product state |site> (x) |spin>, with real amplitudes."""
    if not 0 <= site <= n_max:
        raise SiteOutOfRange(f"site {site} outside 0..{n_max}")
    if spin not in ("up", "down"):
        raise ValueError("spin must be 'up' or 'down'")
    amps = np.zeros((2, n_max + 1))
    amps[0 if spin == "up" else 1, site] = 1.0
    return WalkerState(amps, 0)


def coin_matrix(theta: float) -> np.ndarray:
    """exp(-i*sigma_y*theta/2) in the (up, down) basis."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def coin_rotation(state: WalkerState, theta: float) -> WalkerState:
    """Apply the coin at every site: (a, b) -> (c a - s b, s a + c b)."""
    return WalkerState(coin_matrix(theta) @ state.amps, state.step_count)


def _check_guard_band(state: WalkerState) -> None:
    p = state.site_probabilities()
    if p[-1] >= GUARD_BAND_TOL or p[-2] >= GUARD_BAND_TOL:
        raise GuardBandViolation(
            f"population {max(p[-1], p[-2]):.3e} on the top two sites of "
            f"n_max={state.n_max}; enlarge the lattice"
        )


def _coin_stack(theta: np.ndarray) -> np.ndarray:
    """``coin_matrix`` of every angle in an array: shape theta.shape + (2, 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.stack([c, -s, s, c], -1).reshape(theta.shape + (2, 2))


def _advance(amps: np.ndarray, first: np.ndarray, second: np.ndarray, sign: float,
             frame: str) -> np.ndarray:
    """One walk step of a (..., 2, N) amplitude array with (..., 2, 2) coins,
    returned as a new array; ``sign`` is e^{i*phi}.  In the chiral frame
    ``first`` is the half coin, applied before and after the rest."""
    amps = first @ amps
    # the transposed view indexes site and spin from the front for any stack
    # shape, as fast as plain (2, N) indexing (an Ellipsis index is slower)
    sites = amps.T
    blocked = sign * sites[0, 1]
    # spin-down moves one site toward the boundary, with a sign
    sites[:-1, 1] = -sites[1:, 1]
    sites[-1, 1] = 0.0
    amps = second @ amps
    sites = amps.T
    # spin-up moves one site away from the boundary, with a sign
    sites[1:, 0] = -sites[:-1, 0]
    sites[0, 0] = blocked
    return first @ amps if frame == "chiral" else amps


# Consecutive states are handed out in blocks of at most this many bytes (one
# state when a state is larger).  Blocks and the temporaries of reducing them
# stay below glibc's 128 KB mmap threshold, so they come from the heap instead
# of being mapped and page-faulted in afresh for every block.
_BLOCK_BYTES = 1 << 16


def _trajectory(amps: np.ndarray, first: np.ndarray, second: np.ndarray, signs,
                frame: str, kick: tuple[int, int] | None = None):
    """Step a (..., 2, N) amplitude array once per entry of ``signs`` (e^{i*phi}
    of each step) and yield the start state and every later state, in order,
    as consecutive (K, ..., 2, N) blocks.

    ``first`` and ``second`` are one coin pair for every step, shaped
    (..., 2, 2) as ``_advance`` takes them, or one pair per step, shaped
    (steps, ..., 2, 2).  ``kick=(step, site)`` flips the sign of the
    spin-down amplitude at ``site`` right after that step; the caller checks
    that the site exists.  The input array is left untouched.
    """
    steps = len(signs)
    if np.ndim(first) == amps.ndim:
        first, second = itertools.repeat(first, steps), itertools.repeat(second, steps)
    rows = max(1, _BLOCK_BYTES // amps.nbytes)
    block = np.empty((min(rows, steps + 1),) + amps.shape, amps.dtype)
    block[0] = amps
    k = 1
    for t, sign, a, b in zip(range(1, steps + 1), signs, first, second):
        if k == len(block):
            yield block
            block = np.empty((min(rows, steps + 1 - t),) + amps.shape, amps.dtype)
            k = 0
        amps = _advance(amps, a, b, sign, frame)
        if kick is not None and t == kick[0]:
            amps[..., 1, kick[1]] = -amps[..., 1, kick[1]]
        block[k] = amps
        k += 1
    yield block


def floquet_step(state: WalkerState, params: BulkParams, phi: BoundaryPhase) -> WalkerState:
    """One boundary walk step in the bare (laboratory) frame."""
    _check_guard_band(state)
    amps = _advance(state.amps, coin_matrix(params.theta1), coin_matrix(params.theta2),
                    phi.sign, "walk")
    return WalkerState(amps, state.step_count + 1)


def chiral_step(state: WalkerState, params: BulkParams, phi: BoundaryPhase) -> WalkerState:
    """One step in the chiral time frame: half of the first coin on each side.

    This is the similarity transform R(theta1/2) U R(-theta1/2) of the bare
    step, boundary handling included.  Site populations match the bare frame;
    the spin readout is the one for which bound states pin <sigma_x> to +/-1.
    """
    _check_guard_band(state)
    amps = _advance(state.amps, coin_matrix(params.theta1 / 2.0), coin_matrix(params.theta2),
                    phi.sign, "chiral")
    return WalkerState(amps, state.step_count + 1)


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
