"""Walker states and the boundary split-step walk on a truncated phonon lattice.

The walk space is the half line n = 0..n_max (phonon number states); a walker
state keeps its amplitudes in one (2, n_max+1) array, row 0 = spin up a_n and
row 1 = spin down b_n.  The coins are real rotations and phi is 0 or pi, so the
walk is real orthogonal: a real start stays real, and a complex state steps
through the same code.  The one step kernel ``_step`` makes the bare step of
a walker or of a stack of walkers, (..., 2, W) states kept in flat rows of
2W + 2 numbers: the shift signs are folded into the coins and the shifts are
buffer offsets, so a step is two matrix products and one boundary product.
``_advance`` is its one-shot wrapper; ``floquet_step``, ``chiral_step`` and
``evolve`` step one ``WalkerState`` at a time and are the per-step reference
path.  ``analysis`` alone runs the batched paths (the time series, the
sweep, the quench and the ramp) through the private ``_trajectory``
generator: from bare coin angles and boundary signs, it starts each walker
at |0, down>, builds the coins, steps them straight into blocks of
consecutive states and hands the blocks out.  Amplitude moves at most one
site per step (the walk's light cone), so it steps only the sites the cone
has reached, in whole chunks of ``_SITE_CHUNK`` sites; the sites beyond them
are zero.  For a caller that reads only the edge (the sweep and the ramp) it
steps only the sites that can still reach it, in multiples of 8: the double
light cone.  Each block holds states of one stepped width and is a view of
one pair of buffers used in turn, so a block is valid until the generator
resumes twice.  Every ``_SITE_CHUNK`` steps it flushes subnormals to +0.0.

One Floquet step applies, in order: the first coin, extraction of the
blocked spin-down amplitude at n = 0, the signed down-shift, the second
coin, the signed up-shift, and re-injection of the blocked amplitude into
(0, up) with phase e^{i*phi}.  Every operation is O(n_max).
``_cut_link_step`` closes the top site with a mirrored cut link, so the step
stays exactly unitary, and ``build_step_matrix`` is that step as a dense
matrix, built with the same kernel; the dense cut-link assembly it is checked
against is a test-side reference.

The chiral time frame (Asboth and Obuse, PRB 88, 121406(R) (2013)) is a
readout: ``_trajectory`` steps y_t = R(theta1_t / 2)^-1 c_t for the chiral
state c_t with merged coins; only spin readouts and final states turn back.
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
    """Coin angles (theta1, theta2) in radians, stored unwrapped; scalars or arrays."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not (np.isfinite(self.theta1).all() and np.isfinite(self.theta2).all()):
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


def _site_probabilities(states: np.ndarray, out=None) -> np.ndarray:
    """p_n = |a_n|^2 + |b_n|^2 of every state of a (..., 2, W) array: (..., W)."""
    weights = np.abs(states) ** 2 if np.iscomplexobj(states) else np.square(states)
    return np.add(weights[..., 0, :], weights[..., 1, :], out=out)


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

    def site_probabilities(self) -> np.ndarray:
        """p_n = |a_n|^2 + |b_n|^2."""
        return _site_probabilities(self.amps)

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


_FOLD = np.array([[[1.0, 1.0], [-1.0, -1.0]], [[-1.0, -1.0], [1.0, 1.0]]])  # coin row signs


def _fold(first: np.ndarray, second: np.ndarray, out=(None, None)):
    """The coins with the shift signs folded in: row 1 of ``first`` and row 0
    of ``second`` negated, exactly (in place for ``out=(first, second)``)."""
    return np.multiply(first, _FOLD[0], out=out[0]), np.multiply(second, _FOLD[1], out=out[1])


def _views(flat: np.ndarray, width: int, slot: int, site: int):
    """Views of flat (..., 2W + 2) rows: the (..., 2, W) states, up at [0:W] and
    down at [W+1:2W+1]; the (..., 2, W) slot at [slot:slot+2W]; and [site]."""
    lead = flat.shape[:-1]
    return (flat.reshape(lead + (2, width + 1))[..., :width],
            flat[..., slot:slot + 2 * width].reshape(lead + (2, width)),
            flat[..., site:site + 1])


def _step(prev, first, second, sign, scratch, out, head) -> None:
    """The step kernel: one bare-frame step of the (..., 2, W) states ``prev``
    with ``_fold``-ed coins, sign = e^{i*phi}.  ``scratch`` is the ``_views``
    of a zero row, slot [0:2W], site [W]: its states read the first product's
    down spin one site down (0 from [2W] at the top); its slot may be cut to a
    narrower ``prev``, with the zero row beyond it.  ``out``, the new row's
    slot [1:2W+1], moves the second's up spin one site up; ``head`` is [0]."""
    shifted, product, spill = scratch
    np.matmul(first, prev, out=product)
    np.matmul(second, shifted, out=out)
    np.multiply(spill, -sign, out=head)


def _advance(amps: np.ndarray, first: np.ndarray, second: np.ndarray,
             sign: float) -> np.ndarray:
    """One bare-frame walk step of a (..., 2, N) amplitude array with (..., 2, 2)
    coins, returned as a new array (a view of its flat row); ``sign`` is e^{i*phi}."""
    lead, width = amps.shape[:-2], amps.shape[-1]
    state, out, head = _views(np.empty(lead + (2 * width + 2,), amps.dtype), width, 1, 0)
    scratch = _views(np.zeros(lead + (2 * width + 2,), amps.dtype), width, 0, width)
    _step(amps, *_fold(first, second), sign, scratch, out, head)
    return state


# A block holds the consecutive states of at most this many bytes, but at least
# 8 walker-states, so one walker wider than 512 sites comes in blocks of 8 states.
# The blocks of a trajectory take turns in one pair of buffers: a block above
# glibc's 128 KB mmap threshold is not mapped and page-faulted in afresh.
_BLOCK_BYTES = 1 << 16
# Trajectories read in full are stepped in whole chunks of this many sites, every
# state of a block on the same chunks, and ``analysis`` zero-pads states to whole
# chunks for its fixed-order moment product, so trailing empty sites change no step
# or sum.  Every stepped width is a multiple of 8 (OpenBLAS rounds the last column of
# a product of width 1 mod 8 its own way) or the full width N, where the top sites
# are empty.  Every this many steps the trajectory also flushes its subnormals to zero.
_SITE_CHUNK = 128


def _stepped_widths(steps: int, reads: int) -> np.ndarray:
    """Sites stepped for each state 0..steps of a trajectory whose caller reads
    the first ``reads`` sites of each state; see ``_trajectory``."""
    t = np.arange(steps + 1)
    align = _SITE_CHUNK if reads >= steps + 3 else 8
    return np.minimum(steps + 3, -(-np.minimum(t + 2, reads + steps + 1 - t) // align) * align)


def _trajectory(angles: np.ndarray, signs, frame: str,
                kick: tuple[int, int] | None = None, reads: int | None = None):
    """Step walkers from |0, down> on N = len(signs) + 3 sites once per entry
    of ``signs`` (e^{i*phi} of each step) and yield the start state and every
    later state, in order, as consecutive blocks (states, turns) of (K, ..., 2,
    W) states, W <= N, and (K, ..., 2, 2) readout rotations.  The light cone
    never reaches the top two sites, so no guard scan is made.

    ``angles`` holds the bare coin angles (theta1, theta2) as an (S, 2, ...)
    array, S = len(signs) for per-step angles or S = 1 for fixed ones; its
    trailing axes are the stack of walkers.  ``kick=(step, site)`` flips the
    sign of the spin-down amplitude of the frame's state at ``site`` right
    after that step; the caller checks that the site exists.  In the bare
    frame ``turns`` is None.  In the chiral frame the states are y_t =
    H_t^-1 c_t of the chiral states c_t, H_t = R(theta1_t / 2), H_0 = 1: a
    bare walk whose first coin is H_t H_{t-1}, and ``turns`` holds H_t.

    Only sites that can reach a read site are stepped.  State t is zero
    beyond site t (the forward light cone), and if the caller reads only the
    first R = ``reads`` sites of each state (all N if None), no site beyond
    R - 1 + steps - t reaches them by the last step.  So state t is stepped
    on min(t + 2, R + steps - t + 1) sites (``_stepped_widths``), rounded up
    to whole chunks of ``_SITE_CHUNK`` sites if R >= N, else to a multiple of
    8 (see ``_SITE_CHUNK``), and at most N.  Every block holds states of one
    stepped width W, each stepped on exactly that width, and equals the
    full-width state on its first min(W, R + steps - t) sites (a zero may
    differ in sign); read in full, the full-width state is zero beyond W.
    K keeps a block's states within ``_BLOCK_BYTES`` if it can, but K >=
    ceil(8 / walkers), so a block holds at least 8 walker-states unless the
    run of states of its width ends first.

    The blocks are views of one pair of buffers per trajectory, used in turn:
    K flat rows of 2W + 2 numbers per walker (``_views``) that ``_step`` writes
    each state into, with coins folded once per run of steps.  The views are
    built once per (K, W, buffer).  A block stays valid until the generator
    resumes twice; the caller reduces or copies it before then.

    Right after each step t with t % ``_SITE_CHUNK`` == 0, and after that
    step's kick, every amplitude below the smallest normal float
    (``np.finfo(float).tiny``, 2.2e-308) in magnitude is set to +0.0: the
    subnormal tail ahead of the bulk steps many times slower and carries no
    readable probability.  The rule depends on t alone, not on the blocks.
    """
    if frame not in ("walk", "chiral"):
        raise ValueError(f"frame must be walk or chiral, got {frame!r}")
    steps = len(signs)
    stack = angles.shape[2:]
    walkers = math.prod(stack)
    site_bytes = 16 * walkers
    floor = -(-8 // walkers)  # rows of at least 8 walker-states
    # per run of steps: merged first angles theta1_t - h_t + h_{t-1}, theta2, h_t
    per_step = angles if len(angles) != 1 else angles[[0, 0]]
    readout = np.zeros((len(per_step) + 1,) + stack)  # h_t of state t, h_0 = 0
    np.multiply(per_step[:, 0], 0.5 if frame == "chiral" else 0.0, out=readout[1:])
    run = max(1, _BLOCK_BYTES // (6 * angles[0].nbytes))

    def coin_run(lo):
        step, h = per_step[lo:lo + run], readout[lo:lo + run + 1]
        first, second, turn = _coin_stack(np.stack([step[:, 0] - h[1:] + h[:-1], step[:, 1],
                                                    h[1:]], axis=1)).swapaxes(0, 1)
        return zip(*_fold(first, second, (first, second)), turn)

    coins = itertools.chain.from_iterable(map(coin_run, range(0, len(per_step), run)))
    if len(angles) == 1:
        coins = itertools.chain([next(coins)], itertools.repeat(next(coins)))

    widths = _stepped_widths(steps, steps + 3 if reads is None else reads)
    lasts = [*np.flatnonzero(np.diff(widths)).tolist(), steps]  # each run of one width ends

    def layouts():
        """(K, W) of every block in order: K states of one stepped width W, as
        many as fit the block, cut short where the run of that width ends."""
        first = 0
        for last in lasts:
            sites = int(widths[last])
            rows = max(floor, _BLOCK_BYTES // (site_bytes * sites))
            for t in range(first, last + 1, rows):
                yield min(rows, last + 1 - t), sites
            first = last + 1

    size = walkers * max(rows * (2 * sites + 2) for rows, sites in layouts())
    most = walkers * max(rows for rows, _ in layouts())
    pair = [(np.empty(size), np.empty(4 * most)) for _ in range(2)]
    views = {}

    def block(rows, sites, parity):
        """Readout rotations and the (states, slots, sites [0]) views of K flat rows
        of buffer ``parity``, built once per (K, W, buffer)."""
        if (rows, sites, parity) not in views:
            flat, rotations = pair[parity]
            views[rows, sites, parity] = (
                rotations[:4 * walkers * rows].reshape((rows,) + stack + (2, 2)),
                *_views(flat[:walkers * rows * (2 * sites + 2)].reshape(
                    (rows,) + stack + (2 * sites + 2,)), sites, 1, 0))
        return views[rows, sites, parity]

    blocks = layouts()
    rows, sites = next(blocks)
    zero = scratch = _views(np.zeros(stack + (2 * sites + 2,)), sites, 0, sites)
    (turns, states, outs, heads), k, parity = block(rows, sites, 0), 1, 0
    states[0], turns[0] = 0.0, np.eye(2)
    states[0, ..., 1, 0] = 1.0  # |0, down>
    prev = states[0]
    for t, sign, (first, second, turn) in zip(range(1, steps + 1), signs, coins):
        if k == rows:  # the next block goes into the other buffer, which prev is not in
            yield states, turns if frame == "chiral" else None
            rows, new = next(blocks)
            if new != sites:  # the old scratch row is freed before the new one is made
                zero = scratch = None
                zero = _views(np.zeros(stack + (2 * new + 2,)), new, 0, new)
                # a narrower prev is read as it is, into the start of the new zero row
                scratch = (zero[0], zero[1][..., :sites], zero[2]) if new > sites else zero
                prev, sites = prev[..., :new], new
            parity ^= 1
            (turns, states, outs, heads), k = block(rows, sites, parity), 0
        _step(prev, first, second, sign, scratch, outs[k], heads[k])
        prev, turns[k], scratch = states[k], turn, zero
        if kick is not None and t == kick[0] and kick[1] < sites:
            flip = turn.swapaxes(-1, -2) @ (turn * [[1.0], [-1.0]])  # H^T sigma_z H
            spin = prev[..., kick[1]:kick[1] + 1]
            spin[...] = np.einsum("...ij,...jk->...ik", flip, spin)
        if t % _SITE_CHUNK == 0:
            prev[np.abs(prev) < np.finfo(float).tiny] = 0.0
        k += 1
    yield states, turns if frame == "chiral" else None


def floquet_step(state: WalkerState, params: BulkParams, phi: BoundaryPhase) -> WalkerState:
    """One boundary walk step in the bare (laboratory) frame."""
    _check_guard_band(state)
    amps = _advance(state.amps, coin_matrix(params.theta1), coin_matrix(params.theta2),
                    phi.sign)
    return WalkerState(amps, state.step_count + 1)


def chiral_step(state: WalkerState, params: BulkParams, phi: BoundaryPhase) -> WalkerState:
    """One step in the chiral time frame: half of the first coin on each side.

    This is the similarity transform R(theta1/2) U R(-theta1/2) of the bare
    step, boundary handling included.  Site populations match the bare frame;
    the spin readout is the one for which bound states pin <sigma_x> to +/-1.
    """
    _check_guard_band(state)
    half = coin_matrix(params.theta1 / 2.0)
    amps = half @ _advance(state.amps, half, coin_matrix(params.theta2), phi.sign)
    return WalkerState(amps, state.step_count + 1)


def sigma_z_kick(state: WalkerState, site: int) -> WalkerState:
    """Flip the sign of the spin-down amplitude at one site (sigma_z there)."""
    if not 0 <= site <= state.n_max:
        raise SiteOutOfRange(f"site {site} outside 0..{state.n_max}")
    out = state.copy()
    out.down[site] = -out.down[site]
    return out


def evolve(state: WalkerState, params: BulkParams, phi: BoundaryPhase, steps: int,
           step=floquet_step) -> WalkerState:
    """The state after ``steps`` calls of ``step``, one per step."""
    if state.n_max < steps + 2:
        raise GuardBandViolation(
            f"n_max={state.n_max} cannot hold {steps} steps plus the guard band"
        )
    for _ in range(steps):
        state = step(state, params, phi)
    return state


def _cut_link_step(amps: np.ndarray, params: BulkParams, phi: BoundaryPhase) -> np.ndarray:
    """The exactly unitary step of (..., 2, n_max + 1) states that fill the whole
    lattice, in O(n_max): the bare step, with a mirrored cut link (phi = 0)
    closing the top site in place of the truncation."""
    first = coin_matrix(params.theta1)
    out = _advance(amps, first, coin_matrix(params.theta2), phi.sign)
    out[..., 1, -1] = -(amps[..., -1] @ first[0])  # the mirrored cut link at the top
    return out


def build_step_matrix(params: BulkParams, phi: BoundaryPhase, n_max: int) -> np.ndarray:
    """Dense one-step unitary on sites 0..n_max, basis index(n, spin) = 2n + spin:
    ``_cut_link_step`` of every basis state, one column each."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    dim = 2 * (n_max + 1)
    basis = np.eye(dim).reshape(dim, n_max + 1, 2).swapaxes(1, 2)  # column j as a state
    return _cut_link_step(basis, params, phi).transpose(2, 1, 0).reshape(dim, dim)
