"""Pulse-level verification of the six-step laser realization of the walk.

The walk step is implemented physically as six laser operations on the
(phonon ladder) x (up, down, auxiliary) space: a coin pulse, a red-sideband
shelving passage into the auxiliary level, a pi pulse, a second coin pulse
on the (down, auxiliary) pair, a blue-sideband passage, and a closing pi
pulse.  ``compile_six_step_cycle`` assembles the six ideal operators on the
truncated ladder and reproduces the abstract one-step walk matrix exactly,
with the auxiliary level empty after every full cycle.

The sideband passages are adiabatic sweeps of a modulated Jaynes-Cummings
Hamiltonian; ``stirap_evolve`` integrates the corresponding two-level
Schrodinger equation and ``adiabaticity_margin`` quantifies how slow the
sweep is.  ``verify_cycle`` ties both layers together in one report.

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

from .lattice import BoundaryPhase, BulkParams, build_step_matrix

UP, DOWN, AUX = 0, 1, 2


class StepTooCoarse(RuntimeError):
    """Integrator step too large for the Hamiltonian scale."""


@dataclass(frozen=True)
class PulseConfig:
    """Sideband passage schedule: Omega(t) = omega0 sin(pi t / tau),
    delta(t) = delta0 cos(pi t / tau) over t in [0, tau]."""

    omega0: float
    delta0: float
    tau: float
    integrator_step: float

    def __post_init__(self):
        if min(self.omega0, self.delta0, self.tau, self.integrator_step) <= 0:
            raise ValueError("all pulse parameters must be positive")


@dataclass
class ThreeLevelLadderState:
    """Amplitudes over (phonon 0..n_max) x (up, down, aux), index 3n + level."""

    amps: np.ndarray
    n_max: int

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (3 * (self.n_max + 1),):
            raise ValueError("amplitude vector has the wrong length")

    @classmethod
    def from_spinor(cls, vec: np.ndarray) -> "ThreeLevelLadderState":
        """Embed a (site, up/down) vector with an empty auxiliary level."""
        vec = np.asarray(vec, dtype=complex)
        n_sites = vec.size // 2
        amps = np.zeros(3 * n_sites, dtype=complex)
        amps[UP::3] = vec[0::2]
        amps[DOWN::3] = vec[1::2]
        return cls(amps, n_sites - 1)

    def aux_population(self) -> float:
        return float(np.sum(np.abs(self.amps[AUX::3]) ** 2))


# ---------------------------------------------------------------------------
# ideal six-step operators on the truncated ladder

def _idx(n: int, level: int) -> int:
    return 3 * n + level


def _coin_up_down(theta: float, n_max: int) -> np.ndarray:
    """Step 1: R_y(theta) on (up, down), identity on the auxiliary level."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    block = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return np.kron(np.eye(n_max + 1), block)


def _red_sideband(n_max: int) -> np.ndarray:
    """Step 2: shelve |n, down> -> -|n-1, aux|; |0, down> is blocked.

    The return legs |n, aux> -> |n+1, down> complete the passage unitarily;
    the top auxiliary state has no partner inside the truncation and stays.
    """
    dim = 3 * (n_max + 1)
    m = np.zeros((dim, dim))
    for n in range(n_max + 1):
        m[_idx(n, UP), _idx(n, UP)] = 1.0
    m[_idx(0, DOWN), _idx(0, DOWN)] = 1.0
    for n in range(1, n_max + 1):
        m[_idx(n - 1, AUX), _idx(n, DOWN)] = -1.0
        m[_idx(n, DOWN), _idx(n - 1, AUX)] = 1.0
    m[_idx(n_max, AUX), _idx(n_max, AUX)] = 1.0
    return m


def _pi_up_down(n_max: int) -> np.ndarray:
    """Step 3: R_y(pi) on (up, down): up -> down, down -> -up."""
    block = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return np.kron(np.eye(n_max + 1), block)


def _coin_down_aux(theta: float, n_max: int) -> np.ndarray:
    """Step 4: R_y(theta) on (down, aux) at every phonon level except the top.

    The top level is left alone: the rotation at phonon m realizes the link
    (m, m+1) of the walk, and the link above the truncation edge is cut.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    block = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    blocks = [block] * n_max + [np.eye(3)]
    out = np.zeros((3 * (n_max + 1), 3 * (n_max + 1)))
    for n, b in enumerate(blocks):
        out[3 * n:3 * n + 3, 3 * n:3 * n + 3] = b
    return out


def _blue_sideband(n_max: int) -> np.ndarray:
    """Step 5: |n, down> -> -|n+1, up>, with |0, up> unpaired.

    The unpaired edge state picks up a minus sign (see the module note);
    the cut top link shelves |n_max, down> into the empty top auxiliary
    slot so the passage stays unitary on the truncated ladder.
    """
    dim = 3 * (n_max + 1)
    m = np.zeros((dim, dim))
    for n in range(n_max):
        m[_idx(n + 1, UP), _idx(n, DOWN)] = -1.0
        m[_idx(n, DOWN), _idx(n + 1, UP)] = 1.0
    m[_idx(0, UP), _idx(0, UP)] = -1.0
    for n in range(n_max):
        m[_idx(n, AUX), _idx(n, AUX)] = 1.0
    m[_idx(n_max, AUX), _idx(n_max, DOWN)] = -1.0
    m[_idx(n_max, DOWN), _idx(n_max, AUX)] = 1.0
    return m


def _pi_down_aux(n_max: int) -> np.ndarray:
    """Step 6: pi pulse on (down, aux) returning shelved amplitude: aux -> down."""
    block = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    return np.kron(np.eye(n_max + 1), block)


def _phase_insert(phi: BoundaryPhase, n_max: int) -> np.ndarray:
    """Boundary-phase control after step 2: e^{i phi} on every |down> level.

    Only |0, down> is occupied there, so this multiplies exactly the blocked
    boundary amplitude.
    """
    diag = np.ones(3 * (n_max + 1), dtype=complex)
    diag[DOWN::3] = np.exp(1j * phi.phi)
    return np.diag(diag)


def compile_six_step_cycle(params: BulkParams, phi: BoundaryPhase, n_max: int) -> np.ndarray:
    """Compose the six ideal laser operators (plus the phase control) into
    one cycle on the (phonon x three-level) space."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    s1 = _coin_up_down(params.theta1, n_max)
    s2 = _red_sideband(n_max)
    s3 = _pi_up_down(n_max)
    s4 = _coin_down_aux(params.theta2, n_max)
    s5 = _blue_sideband(n_max)
    s6 = _pi_down_aux(n_max)
    return s6 @ s5 @ s4 @ s3 @ _phase_insert(phi, n_max) @ s2 @ s1


def spin_block(cycle: np.ndarray) -> np.ndarray:
    """Restriction of a cycle matrix to the physical (up, down) block."""
    dim3 = cycle.shape[0]
    n_sites = dim3 // 3
    keep = np.array([3 * n + lvl for n in range(n_sites) for lvl in (UP, DOWN)])
    return cycle[np.ix_(keep, keep)]


def aux_leakage(cycle: np.ndarray) -> float:
    """Largest matrix element from a physical column into an auxiliary row."""
    n_sites = cycle.shape[0] // 3
    phys = np.array([3 * n + lvl for n in range(n_sites) for lvl in (UP, DOWN)])
    aux = np.arange(AUX, 3 * n_sites, 3)
    return float(np.max(np.abs(cycle[np.ix_(aux, phys)])))


# ---------------------------------------------------------------------------
# adiabatic sideband passages

def jc_subspace_hamiltonian(n: int, omega: float, delta: float) -> np.ndarray:
    """Rotating-frame sideband Hamiltonian on span{|down, n>, |up, n+1>}.

    The coupling carries the ladder factor sqrt(n+1); eigenvalues are
    +/- sqrt(delta^2 + (n+1) omega^2) / 2.
    """
    if n < 0:
        raise ValueError("phonon index must be non-negative")
    g = math.sqrt(n + 1) * omega / 2.0
    return np.array([[-delta / 2.0, g], [g, delta / 2.0]])


def _max_hamiltonian_norm(n: int, config: PulseConfig) -> float:
    return 0.5 * math.sqrt(config.delta0**2 + (n + 1) * config.omega0**2)


def _stirap_batch(ns, config: PulseConfig, enforce_step: bool = True) -> np.ndarray:
    """Integrate the modulated passage from |down, n> for a batch of phonon
    levels at once; returns final amplitudes with shape (len(ns), 2).

    Classic fixed-step fourth-order Runge-Kutta on the two-level
    Schrodinger equation; the step must resolve the Hamiltonian scale.
    ``enforce_step=False`` skips that guard so convergence diagnostics can
    probe the regime where the discretization error is visible.
    """
    ns = np.asarray(ns, dtype=int)
    worst = _max_hamiltonian_norm(int(ns.max()), config)
    if enforce_step and config.integrator_step * worst >= 0.01:
        raise StepTooCoarse(
            f"step {config.integrator_step} too coarse for |H| ~ {worst:.3g}")
    steps = max(1, int(math.ceil(config.tau / config.integrator_step)))
    dt = config.tau / steps
    roots = np.sqrt(ns + 1.0)

    def deriv(t, psi):
        omega = config.omega0 * math.sin(math.pi * t / config.tau)
        delta = config.delta0 * math.cos(math.pi * t / config.tau)
        g = roots * (omega / 2.0)
        out = np.empty_like(psi)
        out[:, 0] = -1j * (-delta / 2.0 * psi[:, 0] + g * psi[:, 1])
        out[:, 1] = -1j * (g * psi[:, 0] + delta / 2.0 * psi[:, 1])
        return out

    psi = np.zeros((ns.size, 2), dtype=complex)
    psi[:, 0] = 1.0
    t = 0.0
    for _ in range(steps):
        k1 = deriv(t, psi)
        k2 = deriv(t + dt / 2.0, psi + dt / 2.0 * k1)
        k3 = deriv(t + dt / 2.0, psi + dt / 2.0 * k2)
        k4 = deriv(t + dt, psi + dt * k3)
        psi = psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return psi


def stirap_evolve(n: int, config: PulseConfig) -> tuple[np.ndarray, float]:
    """Passage from |down, n>: (final amplitudes, probability in |up, n+1>)."""
    if n < 0:
        raise ValueError("phonon index must be non-negative")
    psi = _stirap_batch([n], config)[0]
    return psi, float(abs(psi[1]) ** 2)


def adiabaticity_margin(config: PulseConfig, n_grid: int = 20001) -> float:
    """max_t |d theta/dt| / sqrt(Omega^2 + delta^2) with tan theta = Omega/delta.

    Small values mean the sweep is adiabatic; the margin scales as 1/tau.
    Returns inf when the Bloch angle is undefined (delta0 -> 0 endpoints).
    """
    ts = np.linspace(0.0, config.tau, n_grid)
    omega = config.omega0 * np.sin(np.pi * ts / config.tau)
    delta = config.delta0 * np.cos(np.pi * ts / config.tau)
    magnitude = np.sqrt(omega**2 + delta**2)
    if np.min(magnitude) < 1e-12 * max(config.omega0, config.delta0):
        return float("inf")
    theta = np.arctan2(omega, delta)
    dtheta = np.gradient(np.unwrap(theta), ts)
    return float(np.max(np.abs(dtheta) / magnitude))


@dataclass(frozen=True)
class CycleReport:
    unitarity_error: float
    leakage: float
    step_deviation: float       # from the abstract walk matrix, phase-aligned
    transfer_probabilities: tuple
    min_transfer: float
    transfer_spread: float
    fidelity_bound: float       # worst-case product over the two passages
    adiabatic_margin: float
    adiabatic: bool


def verify_cycle(params: BulkParams, phi: BoundaryPhase, n_max: int,
                 config: PulseConfig, n_levels: int = 11,
                 margin_threshold: float = 0.1,
                 fidelity_threshold: float = 0.98) -> CycleReport:
    """Check the ideal compilation against the walk matrix and score the
    adiabatic passages that realize the two sideband steps."""
    cycle = compile_six_step_cycle(params, phi, n_max)
    dim = cycle.shape[0]
    unitarity = float(np.max(np.abs(cycle.conj().T @ cycle - np.eye(dim))))
    leak = aux_leakage(cycle)
    block = spin_block(cycle)
    target = build_step_matrix(params, phi, n_max)
    anchor = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    rel_phase = block[anchor] / target[anchor]
    deviation = float(np.max(np.abs(block - rel_phase * target)))

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
        adiabatic=margin < margin_threshold and fidelity >= fidelity_threshold,
    )
