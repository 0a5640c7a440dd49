"""Pulse-level verification of the six-step laser realization of the walk.

The walk step is implemented physically as six laser operations on the
(phonon ladder) x (up, down, auxiliary) space: a coin pulse, a red-sideband
shelving passage into the auxiliary level, a pi pulse, a second coin pulse
on the (down, auxiliary) pair, a blue-sideband passage, and a closing pi
pulse.  ``compile_six_step_cycle`` assembles the six ideal operators on the
truncated ladder.  Each is a 2x2 rotation on pairs of (phonon, level) states
and the identity elsewhere: the coin and pi pulses turn two levels at one
phonon number, the sideband passages turn |n, down> with a state one phonon
below (red) or above (blue), and the boundary phase e^{i phi} = +/-1 is a
sign.  The cycle is therefore real, its physical block equals the one-step
walk matrix ``build_step_matrix`` exactly (bit for bit), and the auxiliary
level is empty after every full cycle.  That matrix is the step kernel of
every walk applied to each basis state, so ``verify_cycle`` checks the six
operations against the step kernel itself.

The sideband passages are adiabatic sweeps of a modulated Jaynes-Cummings
Hamiltonian; ``_stirap_batch`` propagates the corresponding two-level
Schrodinger equation with an exact-exponential, fourth-order
commutator-free Magnus propagator (CF4) on real SU(2) quaternions, and
``adiabaticity_margin`` quantifies, in closed form, how slow the sweep is.
The schedule is mirror-symmetric, H(tau - t) = sigma_x H(t) sigma_x, so the
propagator integrates the first half of each passage and closes it with the
mirrored, transposed half.  ``verify_cycle`` ties both layers together in one
report.

Sign conventions: two phases of the shelving pulses are not determined by
the ideal step list alone (the return leg of the closing pi pulse and the
phase picked up by the unpaired edge state |0, up> in the blue-sideband
passage).  They are pinned here so that the composed cycle equals the walk
operator; the naive sign choices compose to the walk operator dressed with
an extra sigma_z layer and a flipped boundary phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import BoundaryPhase, BulkParams, build_step_matrix, coin_matrix

# verify_cycle calls a schedule adiabatic below this margin and at or above
# this worst-case two-passage fidelity
MARGIN_THRESHOLD = 0.1
FIDELITY_THRESHOLD = 0.98
# A passage takes ceil(tau / dt) integrator steps; a schedule that asks for
# more than this is rejected, so that no input runs unbounded.  10^7 steps are
# 80x the longest passage in the tests (tau = 500 at dt = 0.004) and take about
# 16 s for verify_cycle's 11 levels on a shared 2-vCPU x86-64 host (the mirrored
# half-passage; 24 s when every step was integrated).
MAX_PASSAGE_STEPS = 10**7


class StepTooCoarse(RuntimeError):
    """Integrator step too large for the Hamiltonian scale."""


@dataclass(frozen=True)
class PulseConfig:
    """Sideband passage schedule: Omega(t) = omega0 sin(pi t / tau),
    delta(t) = delta0 cos(pi t / tau) over t in [0, tau], integrated in
    steps of about ``integrator_step`` (dt), at most MAX_PASSAGE_STEPS."""

    omega0: float
    delta0: float
    tau: float
    integrator_step: float

    def __post_init__(self):
        for name in ("omega0", "delta0", "tau", "integrator_step"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"pulse {name} must be finite and positive, got {value}")
        # ceil(tau / dt) > MAX exactly when tau / dt > MAX, an overflow to inf included
        if self.tau / self.integrator_step > MAX_PASSAGE_STEPS:
            raise ValueError(
                f"pulse tau={self.tau:g} and dt={self.integrator_step:g} ask for "
                f"{self.tau / self.integrator_step:.3g} passage steps; the limit is "
                f"{MAX_PASSAGE_STEPS}")


# ---------------------------------------------------------------------------
# ideal six-step operators on the truncated ladder

# R_y(pi) with exact zeros (coin_matrix(pi) has cos(pi/2) ~ 6e-17 there)
_PI_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def _turns(rot: np.ndarray, first: np.ndarray, second: np.ndarray, dim: int) -> np.ndarray:
    """The 2x2 ``rot`` on each pair (first[k], second[k]) of basis states,
    the identity on every other state."""
    m = np.eye(dim)
    m[first, first], m[first, second] = rot[0]
    m[second, first], m[second, second] = rot[1]
    return m


def compile_six_step_cycle(params: BulkParams, phi: BoundaryPhase, n_max: int) -> np.ndarray:
    """Compose the six ideal laser operators (plus the phase control) into
    one real cycle on the (phonon x three-level) space, basis index 3n + level."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    dim = 3 * (n_max + 1)
    up, down, aux = np.arange(dim).reshape(-1, 3).T  # up[n] is the index of |n, up>
    # step 1: coin R_y(theta1) on (up, down)
    s1 = _turns(coin_matrix(params.theta1), up, down, dim)
    # step 2: red sideband, |n, down> -> -|n-1, aux>; |0, down> is blocked,
    # and the top aux state has no partner inside the truncation
    s2 = _turns(_PI_TURN.T, down[1:], aux[:-1], dim)
    # phase control e^{i phi} on the down levels after the shelving passage;
    # only the blocked boundary amplitude |0, down> is there to pick it up
    s2[down] *= phi.sign
    # step 3: pi pulse, up -> down, down -> -up
    s3 = _turns(_PI_TURN, up, down, dim)
    # step 4: coin R_y(theta2) on (down, aux); the rotation at phonon m
    # realizes the link (m, m+1) of the walk, and the link above the
    # truncation edge is cut
    s4 = _turns(coin_matrix(params.theta2), down[:-1], aux[:-1], dim)
    # step 5: blue sideband, |n, down> -> -|n+1, up>; the cut top link
    # shelves |n_max, down> into the empty top aux state, so it stays unitary
    s5 = _turns(_PI_TURN.T, down, np.append(up[1:], aux[-1]), dim)
    s5[up[0], up[0]] = -1.0  # the unpaired edge state |0, up> (module note)
    # step 6: pi pulse returning the shelved amplitude, aux -> down
    s6 = _turns(_PI_TURN.T, down, aux, dim)
    return s6 @ s5 @ s4 @ s3 @ s2 @ s1


def spin_block(cycle: np.ndarray) -> np.ndarray:
    """Restriction of a cycle matrix to the physical (up, down) block, in
    walk-vector order (2n + spin)."""
    n = cycle.shape[0] // 3
    return cycle.reshape(n, 3, n, 3)[:, :2, :, :2].reshape(2 * n, 2 * n)


def aux_leakage(cycle: np.ndarray) -> float:
    """Largest matrix element from a physical column into an auxiliary row."""
    n = cycle.shape[0] // 3
    return float(np.max(np.abs(cycle.reshape(n, 3, n, 3)[:, 2, :, :2])))


# ---------------------------------------------------------------------------
# adiabatic sideband passages

def _passage_coefficients(n, omega, delta):
    """(a, b) of the sideband Hamiltonian H = a sigma_z + b sigma_x on
    span{|down, n>, |up, n+1>}; ``n`` may be an array of phonon indices."""
    return -0.5 * delta, 0.5 * np.sqrt(n + 1.0) * omega


# CF4 (Blanes & Moan 2006): Gauss nodes 1/2 -/+ sqrt(3)/6 and the weights of
# the two exponentials; the one weighted (ALPHA2, ALPHA1) must act first,
# the reverse order is only second order
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_ALPHA1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_CF4_ALPHA2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
# steps built and reduced at once; bounds the factor arrays to ~0.4 MB at
# 11 levels (larger chunks raised peak memory without a speedup)
_CHUNK = 1024


def _quaternion_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p q for SU(2) elements stored as (w, x, y, z) on axis 0, where
    U = w I - i (x sigma_x + y sigma_y + z sigma_z)."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.stack((pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + qw * px + py * qz - pz * qy,
                     pw * qy + qw * py + pz * qx - px * qz,
                     pw * qz + qw * pz + px * qy - py * qx))


def _exponential(h: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i h (a sigma_z + b sigma_x)) = cos r I - i (sin r / r) h (...),
    with r = h hypot(a, b), as a quaternion."""
    a, b = np.broadcast_arrays(a, b)
    r = h * np.hypot(a, b)
    scale = h * np.sinc(r / math.pi)  # h sin(r) / r, finite at r = 0
    return np.stack((np.cos(r), scale * b, np.zeros_like(r), scale * a))


def _time_ordered(q: np.ndarray) -> np.ndarray:
    """q[..., m-1] ... q[..., 1] q[..., 0] by pairwise passes over the last axis."""
    while q.shape[-1] > 1:
        m = q.shape[-1]
        paired = _quaternion_product(q[..., 1::2], q[..., 0:m - 1:2])
        q = np.concatenate((paired, q[..., m - 1:]), axis=-1) if m % 2 else paired
    return q[..., 0]


def _steps(levels, t, config: PulseConfig, dt: float) -> np.ndarray:
    """The time-ordered product of the CF4 steps that start at the times ``t``."""
    # H at the two nodes of every step
    (a1, b1), (a2, b2) = (
        _passage_coefficients(levels, config.omega0 * np.sin(x), config.delta0 * np.cos(x))
        for x in (math.pi * (t + c * dt) / config.tau for c in _CF4_NODES))
    first = _exponential(dt, _CF4_ALPHA2 * a1 + _CF4_ALPHA1 * a2,
                         _CF4_ALPHA2 * b1 + _CF4_ALPHA1 * b2)
    second = _exponential(dt, _CF4_ALPHA1 * a1 + _CF4_ALPHA2 * a2,
                          _CF4_ALPHA1 * b1 + _CF4_ALPHA2 * b2)
    return _time_ordered(_quaternion_product(second, first))


def _stirap_batch(ns, config: PulseConfig, enforce_step: bool = True) -> np.ndarray:
    """Propagate the modulated passage from |down, n> for a batch of phonon
    levels at once; returns final amplitudes with shape (len(ns), 2).

    Fourth-order commutator-free Magnus propagator (CF4) with exact
    two-level exponentials: each step is the product of two closed-form
    SU(2) rotations built from H at the two Gauss nodes, so the result is
    unitary to round-off.  The steps are multiplied as real quaternions in
    vectorised pairwise passes, chunk by chunk in time order.  The step
    must resolve the Hamiltonian scale; ``enforce_step=False`` skips that
    guard so convergence diagnostics can probe the regime where the
    discretization error is visible.

    The schedule is mirror-symmetric, H(tau - t) = sigma_x H(t) sigma_x, and
    every CF4 factor is the exponential of -i times a real symmetric matrix,
    so step N-1-j of the N = ceil(tau / dt) steps is sigma_x S_j^T sigma_x.
    Only the first floor(N/2) steps are integrated, to V, and for odd N the
    middle step M; U = (sigma_x V^T sigma_x) M V, where sigma_x V^T sigma_x
    is the quaternion (w, x, y, -z) of V = (w, x, y, z).
    """
    ns = np.asarray(ns, dtype=int)
    # hypot, not a root of squares, so huge finite amplitudes do not overflow
    worst = math.hypot(*_passage_coefficients(int(ns.max()), config.omega0, config.delta0))
    if enforce_step and config.integrator_step * worst >= 0.01:
        raise StepTooCoarse(
            f"step {config.integrator_step} too coarse for |H| ~ {worst:.3g}")
    steps = max(1, int(math.ceil(config.tau / config.integrator_step)))
    dt = config.tau / steps
    levels = ns[:, None]
    half = np.zeros((4, ns.size))
    half[0] = 1.0
    for start in range(0, steps // 2, _CHUNK):
        t = np.arange(start, min(start + _CHUNK, steps // 2)) * dt
        half = _quaternion_product(_steps(levels, t, config, dt), half)
        # back onto the unit sphere: where |H| is constant (n = 0 at
        # omega0 = delta0) every factor rounds alike, so the norm would
        # drift linearly with the number of steps
        half /= np.linalg.norm(half, axis=0)
    total = half if steps % 2 == 0 else _quaternion_product(
        _steps(levels, np.array([steps // 2 * dt]), config, dt), half)
    total = _quaternion_product(half * [[1.0], [1.0], [1.0], [-1.0]], total)
    w, x, y, z = total / np.linalg.norm(total, axis=0)
    # column 0 of U: the amplitudes on (|down, n>, |up, n+1>)
    return np.stack((w - 1j * z, y - 1j * x), axis=-1)


def adiabaticity_margin(config: PulseConfig) -> float:
    """max_t |d theta/dt| / sqrt(Omega^2 + delta^2) with tan theta = Omega/delta.

    With x = pi t / tau and B^2 = Omega0^2 sin^2 x + delta0^2 cos^2 x,
    d theta/dt = (pi / tau) Omega0 delta0 / B^2, so the ratio peaks where B
    is smallest, at min(Omega0, delta0): the closed form is
    pi Omega0 delta0 / (tau min(Omega0, delta0)^3).  Small values mean the
    sweep is adiabatic; the margin scales as 1/tau.  Returns inf when the
    Bloch angle is undefined (delta0 -> 0 endpoints).
    """
    low = min(config.omega0, config.delta0)
    high = max(config.omega0, config.delta0)
    if low < 1e-12 * high:
        return float("inf")
    # Omega0 delta0 / low^3 = high / low^2, divided stepwise to avoid underflow
    return math.pi / config.tau * (high / low) / low


@dataclass(frozen=True)
class CycleReport:
    unitarity_error: float
    leakage: float
    step_deviation: float       # max |spin block - abstract walk matrix|
    transfer_probabilities: tuple
    min_transfer: float
    transfer_spread: float
    fidelity_bound: float       # worst-case product over the two passages
    adiabatic_margin: float
    adiabatic: bool


def verify_cycle(params: BulkParams, phi: BoundaryPhase, n_max: int,
                 config: PulseConfig, n_levels: int = 11) -> CycleReport:
    """Check the ideal compilation against the walk matrix and score the
    adiabatic passages that realize the two sideband steps."""
    cycle = compile_six_step_cycle(params, phi, n_max)
    unitarity = float(np.max(np.abs(cycle.T @ cycle - np.eye(cycle.shape[0]))))
    leak = aux_leakage(cycle)
    target = build_step_matrix(params, phi, n_max)
    deviation = float(np.max(np.abs(spin_block(cycle) - target)))

    finals = _stirap_batch(np.arange(n_levels), config)
    transfers = [float(abs(f[1]) ** 2) for f in finals]
    min_transfer = min(transfers)
    margin = adiabaticity_margin(config)
    fidelity = min_transfer**2  # two passages per cycle, worst case each
    return CycleReport(
        unitarity_error=unitarity,
        leakage=leak,
        step_deviation=deviation,
        transfer_probabilities=tuple(transfers),
        min_transfer=min_transfer,
        transfer_spread=float(max(transfers) - min(transfers)),
        fidelity_bound=fidelity,
        adiabatic_margin=margin,
        adiabatic=margin < MARGIN_THRESHOLD and fidelity >= FIDELITY_THRESHOLD,
    )
