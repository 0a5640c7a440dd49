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
``forward_cone_edge_populations`` steps a chiral-frame trajectory on its
whole forward light cone, in 128-site chunks, with ``shifted_step``: the rule
every trajectory followed before the edge readers (the sweep and the ramp)
stepped only the sites that can still reach the edge, and their reference.

Pulses: ``six_step_cycle`` assembles the six laser operators of
``pulse.compile_six_step_cycle`` one phonon at a time, with the coin and pi
pulses as Kronecker products and the two sideband passages as per-phonon
loops: the reference of the pair-rotation builder.
Passages: ``jc_subspace_hamiltonian`` is the two-level sideband Hamiltonian as
a matrix, ``full_cf4_passage`` the CF4 product over every step of a passage,
the reference of the mirrored half-passage in ``pulse._stirap_batch``, and
``stirap_evolve`` the one-level view of that batch.  Edge profiles:
``successive_ratios`` and ``fit_localization`` read the decay of a stable
bound-state profile.  ``to_vector`` and ``from_vector`` convert a
``WalkerState`` to and from the dense-matrix basis.
"""

import math
from dataclasses import dataclass

import numpy as np

from fockwalk import pulse
from fockwalk.analysis import EIGENPHASE_TOL, EigenMode, _edge_populations, linear_fit
from fockwalk.lattice import (
    BoundaryPhase,
    BulkParams,
    WalkerState,
    _coin_stack,
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


def forward_cone_edge_populations(angles: np.ndarray, signs, kick=None) -> np.ndarray:
    """P_edge = p_0 + p_1 after every step of a chiral-frame walk from |0, down>
    on N = len(signs) + 3 sites: (len(signs) + 1, ...) for the stack of walkers
    of ``angles``, (S, 2, ...) bare coin angles (theta1, theta2), S = len(signs)
    or 1.  Step t steps the first min(N, t + 2) sites, rounded up to whole
    128-site chunks, with ``shifted_step`` and the merged first coin H_t
    H_{t-1}, H_t = R(theta1_t / 2); ``kick=(step, site)`` then flips the
    chiral spin-down amplitude at ``site``, and every 128th step sets the
    amplitudes below the smallest normal float to +0.0."""
    n_sites = len(signs) + 3
    state = np.zeros(angles.shape[2:] + (2, n_sites))
    state[..., 1, 0] = 1.0
    p_edge = [_edge_populations(_site_probabilities(state))]
    before = 0.0  # theta1_{t-1} / 2
    for t, sign in enumerate(signs, 1):
        theta1, theta2 = angles[t - 1 if len(angles) > 1 else 0]
        turn = _coin_stack(theta1 * 0.5)
        merged = _coin_stack(theta1 - theta1 * 0.5 + before)
        width = min(n_sites, -(-(t + 2) // 128) * 128)
        state[..., :width] = shifted_step(state[..., :width], merged, _coin_stack(theta2), sign)
        if kick is not None and t == kick[0]:
            flip = turn.swapaxes(-1, -2) @ (turn * [[1.0], [-1.0]])  # H^T sigma_z H
            spin = state[..., kick[1]:kick[1] + 1]
            spin[...] = np.einsum("...ij,...jk->...ik", flip, spin)
        if t % 128 == 0:
            state[np.abs(state) < np.finfo(float).tiny] = 0.0
        p_edge.append(_edge_populations(_site_probabilities(state)))
        before = theta1 * 0.5
    return np.array(p_edge)


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


def to_vector(state: WalkerState) -> np.ndarray:
    """Flatten to the dense-matrix basis: index(n, spin) = 2n + spin."""
    return state.amps.T.flatten()  # a copy even for n_max = 0


def from_vector(vec: np.ndarray, step_count: int = 0) -> WalkerState:
    """The state of a dense-matrix basis vector (index 2n + spin)."""
    vec = np.asarray(vec)
    if vec.ndim != 1 or vec.size % 2:
        raise ValueError("vector length must be even")
    return WalkerState(vec.reshape(-1, 2).T.copy(), step_count)


UP, DOWN, AUX = 0, 1, 2


def _idx(n: int, level: int) -> int:
    return 3 * n + level


def _level_rotation(rot: np.ndarray, pair: tuple[int, int], n_max: int) -> np.ndarray:
    """The 2x2 ``rot`` on the level ``pair`` at every phonon level."""
    block = np.eye(3)
    block[np.ix_(pair, pair)] = rot
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


def _blue_sideband(n_max: int) -> np.ndarray:
    """Step 5: |n, down> -> -|n+1, up>, with |0, up> unpaired.

    The unpaired edge state picks up a minus sign; the cut top link shelves
    |n_max, down> into the empty top auxiliary slot so the passage stays
    unitary on the truncated ladder.
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


def six_step_cycle(params: BulkParams, phi: BoundaryPhase, n_max: int) -> np.ndarray:
    """The six laser operators and the phase control, built phonon by phonon
    on the basis index 3n + level, composed in the order of
    ``pulse.compile_six_step_cycle``."""
    pi_turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    s1 = _level_rotation(coin_matrix(params.theta1), (UP, DOWN), n_max)
    s2 = _red_sideband(n_max)
    s2[DOWN::3] *= phi.sign
    s3 = _level_rotation(pi_turn, (UP, DOWN), n_max)
    s4 = _level_rotation(coin_matrix(params.theta2), (DOWN, AUX), n_max)
    s4[-3:, -3:] = np.eye(3)  # the cut link above the truncation edge
    s5 = _blue_sideband(n_max)
    s6 = _level_rotation(pi_turn.T, (DOWN, AUX), n_max)
    return s6 @ s5 @ s4 @ s3 @ s2 @ s1


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


def jc_subspace_hamiltonian(n: int, omega: float, delta: float) -> np.ndarray:
    """Rotating-frame sideband Hamiltonian on span{|down, n>, |up, n+1>}.

    The coupling carries the ladder factor sqrt(n+1); eigenvalues are
    +/- sqrt(delta^2 + (n+1) omega^2) / 2.
    """
    if n < 0:
        raise ValueError("phonon index must be non-negative")
    a, b = pulse._passage_coefficients(n, omega, delta)
    return np.array([[a, b], [b, -a]])


def stirap_evolve(n: int, config: pulse.PulseConfig) -> tuple[np.ndarray, float]:
    """Passage from |down, n>: (final amplitudes, probability in |up, n+1>)."""
    if n < 0:
        raise ValueError("phonon index must be non-negative")
    psi = pulse._stirap_batch([n], config)[0]
    return psi, float(abs(psi[1]) ** 2)


def full_cf4_passage(ns, config: pulse.PulseConfig) -> np.ndarray:
    """The CF4 passage from |down, n> for each level of ``ns``, every one of its
    ceil(tau / dt) steps integrated in time order, 1024 steps to a chunk, with
    the quaternion renormalised after each chunk: (len(ns), 2) amplitudes.
    ``pulse._stirap_batch`` integrates half of the steps and mirrors them."""
    ns = np.asarray(ns, dtype=int)
    steps = max(1, int(math.ceil(config.tau / config.integrator_step)))
    dt = config.tau / steps
    levels = ns[:, None]
    total = np.zeros((4, ns.size))
    total[0] = 1.0
    for start in range(0, steps, 1024):
        t = np.arange(start, min(start + 1024, steps)) * dt
        total = pulse._quaternion_product(pulse._steps(levels, t, config, dt), total)
        total /= np.linalg.norm(total, axis=0)
    w, x, y, z = total
    return np.stack((w - 1j * z, y - 1j * x), axis=-1)


class InsufficientSupport(RuntimeError):
    """Not enough sites above the probability floor to fit a decay length."""


@dataclass(frozen=True)
class LocalizationFit:
    lam: float          # decay length: p_n ~ exp(-n / lam)
    ratio_even: float   # fitted p_{n+2} / p_n
    r_squared: float


def successive_ratios(profile: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """p_{n+1} / p_n wherever both sit above the floor (nan elsewhere)."""
    profile = np.asarray(profile, dtype=float)
    ratios = np.full(profile.size - 1, np.nan)
    ok = (profile[:-1] > floor) & (profile[1:] > floor)
    ratios[ok] = profile[1:][ok] / profile[:-1][ok]
    return ratios


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


@dataclass(frozen=True)
class QuenchOutcome:
    """What a catalog quench is expected to show.  ``channels_before`` and
    ``channels_after`` are the bound-state channels (nu0, nu_pi) of the
    static systems on each side of the quench, from the computed invariants;
    ``expect`` is "survive" or "die" per the channel rule (a populated
    channel must map onto a post-quench channel, with the 0/pi labels
    swapping when the boundary phase flips); ``sx_final`` is the boundary
    <sigma_x> where it pins."""

    expect: str
    channels_before: tuple[int, int]
    channels_after: tuple[int, int]
    sx_final: float | None = None


# The expected outcome of each scenario of ``quench.survival_catalog``, by name.
SURVIVAL = {
    # (1,0) -> (1,0): zero mode preserved without decay
    "fig6b": QuenchOutcome("survive", (1, 0), (1, 0), +1.0),
    # (1,0) -> (1,1): zero channel survives, sx returns to +1
    "fig6c": QuenchOutcome("survive", (1, 0), (1, 1), +1.0),
    # (1,0) -> (0,1): no shared channel
    "fig6d-no-kick": QuenchOutcome("die", (1, 0), (0, 1)),
    # sigma_z at site 0 maps the zero mode onto the pi channel
    "fig6d-kick": QuenchOutcome("survive", (1, 0), (0, 1), -1.0),
    # (0, pi/4) classifies as (1,1) even though theta1 = 0 looks trivial;
    # the zero channel persists
    "fig6e": QuenchOutcome("survive", (1, 0), (1, 1), +1.0),
    # (1,1) -> (1,1): both channels preserved
    "fig7a": QuenchOutcome("survive", (1, 1), (1, 1)),
    # (1,1) -> (0,0): bound states disappear
    "fig7b": QuenchOutcome("die", (1, 1), (0, 0)),
    # only the pi component survives
    "fig7c": QuenchOutcome("survive", (1, 1), (0, 1), -1.0),
    # only the zero component survives
    "fig7d": QuenchOutcome("survive", (1, 1), (1, 0), +1.0),
    # trivial to trivial
    "fig-noquench-00": QuenchOutcome("die", (0, 0), (0, 0)),
    # channel opens but was never populated
    "fig-noquench-10": QuenchOutcome("die", (0, 0), (1, 0)),
    "fig-noquench-01": QuenchOutcome("die", (0, 0), (0, 1)),
    # channels open but were never populated
    "fig-noquench-11": QuenchOutcome("die", (0, 0), (1, 1)),
    # flipping phi complements the channel pair: (1,0) <-> (0,1), (1,1) <-> (0,0)
    # the zero mode is relabeled as the pi mode and persists
    "fig8-vquench-10": QuenchOutcome("survive", (1, 0), (0, 1), +1.0),
    # the pi mode is relabeled as the zero mode and persists
    "fig8-vquench-01": QuenchOutcome("survive", (0, 1), (1, 0), -1.0),
    # (1,1) turns into (0,0): both channels close
    "fig8-vquench-11": QuenchOutcome("die", (1, 1), (0, 0)),
    # (0, pi/4) computes to (1,1); after the flip both channels close and
    # the state decays
    "fig8-vquench-00": QuenchOutcome("die", (1, 1), (0, 0)),
    # reverse of fig6c for rate sweeps; the zero channel survives while the
    # pi component radiates
    "fig9-reverse": QuenchOutcome("survive", (1, 1), (1, 0), +1.0),
}
