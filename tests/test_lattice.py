import ast
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fockwalk import analysis, lattice, quench
from fockwalk.analysis import (
    _moment_weights,
    _observables,
    _state_sums,
    observable_record,
    walk_table,
)
from fockwalk.lattice import (
    PHI_PI,
    PHI_ZERO,
    BoundaryPhase,
    BulkParams,
    GuardBandViolation,
    SiteOutOfRange,
    WalkerState,
    _advance,
    _coin_stack,
    _cut_link_step,
    _trajectory,
    build_step_matrix,
    chiral_step,
    coin_matrix,
    evolve,
    floquet_step,
    initial_state,
    sigma_z_kick,
)

from oracle import (
    MERGED_TOL,
    assert_close_to_chiral_steps,
    dense_step_matrix,
    forward_cone_edge_populations,
    from_vector,
    shifted_step,
    to_vector,
)

RNG = np.random.default_rng(20240811)


def test_boundary_phase_admits_exactly_two_values():
    assert BoundaryPhase(0.0).sign == 1.0
    assert BoundaryPhase(math.pi).sign == -1.0
    with pytest.raises(ValueError):
        BoundaryPhase(0.5)


def test_bulk_params_reject_non_finite():
    with pytest.raises(ValueError):
        BulkParams(float("nan"), 0.0)


def test_coin_identity_for_zero_angle():
    state = initial_state(6, site=2, spin="down")
    up, down = coin_matrix(0.0) @ state.amps
    np.testing.assert_allclose(up, state.up)
    np.testing.assert_allclose(down, state.down)


def test_coin_half_angle_on_down():
    # theta = pi/2 on |0,down> -> (-|0,up> + |0,down>)/sqrt(2)
    up, down = coin_matrix(math.pi / 2) @ initial_state(4).amps
    assert up[0] == pytest.approx(-1 / math.sqrt(2))
    assert down[0] == pytest.approx(1 / math.sqrt(2))


def test_coin_full_period_sign():
    up, _ = coin_matrix(2 * math.pi) @ initial_state(4, spin="up").amps
    assert up[0] == pytest.approx(-1.0)


def test_step_boundary_flip_blocked_component():
    # theta1 = theta2 = 0, phi = 0: |0,down> -> |0,up>
    out = floquet_step(initial_state(4), BulkParams(0.0, 0.0), PHI_ZERO)
    assert out.up[0] == pytest.approx(1.0)
    assert np.allclose(out.down, 0.0)


def test_step_half_coin_splits_to_two_up_sites():
    # hand-applied six-line algorithm: (pi/2, 0, phi=0) on |0,down>
    out = floquet_step(initial_state(6), BulkParams(math.pi / 2, 0.0), PHI_ZERO)
    root2 = 1 / math.sqrt(2)
    assert out.up[0] == pytest.approx(root2)
    assert out.up[1] == pytest.approx(root2)
    assert np.allclose(out.down, 0.0)


def test_four_step_closed_orbit_on_boundary():
    # (pi/2, -pi, phi=0) keeps |0,down> inside span{|0,up>, |0,down>} and
    # returns minus the initial state after four steps
    params = BulkParams(math.pi / 2, -math.pi)
    state = initial_state(8)
    for _ in range(4):
        state = floquet_step(state, params, PHI_ZERO)
        p = state.site_probabilities()
        assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert state.down[0] == pytest.approx(-1.0)
    assert abs(state.up[0]) < 1e-12


def test_step_matrix_unitary_and_matches_sequential_step():
    n_max = 64
    dim = 2 * (n_max + 1)
    for _ in range(50):
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        phi = PHI_ZERO if RNG.integers(2) == 0 else PHI_PI
        u = dense_step_matrix(params, phi, n_max)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
        # action on |0,down> column
        vec = np.zeros(dim, dtype=complex)
        vec[1] = 1.0
        seq = to_vector(floquet_step(from_vector(vec), params, phi))
        assert np.max(np.abs(seq - u @ vec)) < 1e-12


def test_cut_link_step_is_the_dense_step():
    """``_cut_link_step`` applies the dense step, top site included, to
    a stack of states that fill the whole lattice."""
    n_max, rng = 12, np.random.default_rng(8)
    for phi in (PHI_ZERO, PHI_PI):
        params = BulkParams(*rng.uniform(-2 * math.pi, 2 * math.pi, 2))
        states = rng.normal(size=(3, 2, n_max + 1))
        u = dense_step_matrix(params, phi, n_max)
        want = [from_vector(u @ to_vector(WalkerState(s, 0))).amps for s in states]
        np.testing.assert_allclose(_cut_link_step(states, params, phi), want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(_cut_link_step(states[0], params, phi), want[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_max", [2, 3, 12, 33, 64])
def test_step_matrix_is_the_dense_cut_link_assembly(n_max):
    """``build_step_matrix``, the step kernel applied to every basis state,
    equals the hand-assembled cut-link matrix exactly (a zero may differ in
    sign), in float64, over seeded angles and both boundary phases."""
    rng = np.random.default_rng(2500 + n_max)
    for _ in range(30):
        params = BulkParams(*rng.uniform(-2 * math.pi, 2 * math.pi, 2))
        for phi in (PHI_ZERO, PHI_PI):
            u = build_step_matrix(params, phi, n_max)
            assert u.dtype == np.float64
            assert np.array_equal(u, dense_step_matrix(params, phi, n_max))
    for small in (-1, 0, 1):
        with pytest.raises(ValueError):
            build_step_matrix(BulkParams(0.3, 0.7), PHI_ZERO, small)


def test_oracle_equivalence_on_all_interior_columns():
    n_max = 24
    params = BulkParams(1.234, -2.345)
    u = dense_step_matrix(params, PHI_PI, n_max)
    for idx in range(2 * (n_max - 1)):
        vec = np.zeros(2 * (n_max + 1), dtype=complex)
        vec[idx] = 1.0
        seq = to_vector(floquet_step(from_vector(vec), params, PHI_PI))
        assert np.max(np.abs(seq - u @ vec)) < 1e-12


def test_chiral_step_is_half_coin_similarity():
    n_max = 20
    params = BulkParams(0.77, 1.91)
    u_chiral = dense_step_matrix(params, PHI_ZERO, n_max, frame="chiral")
    vec = np.zeros(2 * (n_max + 1), dtype=complex)
    vec[3] = 0.6
    vec[4] = 0.8
    seq = to_vector(chiral_step(from_vector(vec), params, PHI_ZERO))
    assert np.max(np.abs(seq - u_chiral @ vec)) < 1e-12
    # same eigenphases as the bare frame
    bare = dense_step_matrix(params, PHI_ZERO, n_max)
    assert bare.dtype == u_chiral.dtype == np.float64  # real orthogonal in both frames
    e1 = np.sort(np.angle(np.linalg.eigvals(bare)))
    e2 = np.sort(np.angle(np.linalg.eigvals(u_chiral)))
    assert np.max(np.abs(e1 - e2)) < 1e-10


def test_norm_preserved_over_random_parameter_steps():
    state = initial_state(1005)
    for _ in range(1000):
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        phi = PHI_ZERO if RNG.integers(2) == 0 else PHI_PI
        state = floquet_step(state, params, phi)
    assert abs(observable_record(1000, state).norm ** 2 - 1.0) < 1e-9


def test_real_initial_state_stays_real():
    for phi in (PHI_ZERO, PHI_PI):
        state = initial_state(60)
        params = BulkParams(0.9, -2.2)
        for _ in range(50):
            state = floquet_step(state, params, phi)
            worst = max(np.max(np.abs(state.up.imag)), np.max(np.abs(state.down.imag)))
            assert worst < 1e-12
            assert state.up.dtype == state.down.dtype == np.float64
        # every operation of the real walk keeps the amplitudes float64
        for out in (chiral_step(state, params, phi),
                    WalkerState(coin_matrix(0.3) @ state.amps, state.step_count),
                    sigma_z_kick(state, 1), evolve(initial_state(60), params, phi, 20),
                    evolve(initial_state(60), params, phi, 20, step=chiral_step)):
            assert out.up.dtype == out.down.dtype == to_vector(out).dtype == np.float64


def test_complex_states_match_the_oracle_in_both_frames():
    n_max = 30
    for frame, step in (("walk", floquet_step), ("chiral", chiral_step)):
        for phi in (PHI_ZERO, PHI_PI):
            for _ in range(5):
                params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
                u = dense_step_matrix(params, phi, n_max, frame=frame)
                vec = RNG.normal(size=u.shape[0]) + 1j * RNG.normal(size=u.shape[0])
                vec[-4:] = 0.0  # keep the top two sites (the guard band) empty
                vec /= np.linalg.norm(vec)
                state = from_vector(vec)
                out = step(state, params, phi)
                assert out.up.dtype == out.down.dtype == np.complex128
                assert np.max(np.abs(to_vector(out) - u @ vec)) < 1e-12
                np.testing.assert_array_equal(to_vector(state), vec)  # input untouched


def test_coin_stack_matches_coin_matrix():
    thetas = RNG.uniform(-4 * math.pi, 4 * math.pi, size=(7, 3))
    stack = _coin_stack(thetas)
    assert stack.shape == (7, 3, 2, 2)
    for index in np.ndindex(thetas.shape):
        assert np.max(np.abs(stack[index] - coin_matrix(thetas[index]))) < 1e-15


def test_stacked_step_matches_per_row_steps_and_the_oracle():
    rows, n_max = 5, 24
    for frame, step in (("walk", floquet_step), ("chiral", chiral_step)):
        for phi in (PHI_ZERO, PHI_PI):
            for complex_state in (False, True):
                thetas = RNG.uniform(-2 * math.pi, 2 * math.pi, size=(rows, 2))
                amps = RNG.normal(size=(rows, 2, n_max + 1))
                if complex_state:
                    amps = amps + 1j * RNG.normal(size=amps.shape)
                amps[:, :, -2:] = 0.0  # keep the guard band empty
                first = _coin_stack(thetas[:, 0] / 2.0 if frame == "chiral" else thetas[:, 0])
                before = amps.copy()
                out = _advance(amps, first, _coin_stack(thetas[:, 1]), phi.sign)
                if frame == "chiral":  # the half coin on the other side too
                    out = first @ out
                np.testing.assert_array_equal(amps, before)  # input untouched
                assert out.shape == amps.shape and out.dtype == amps.dtype
                for row in range(rows):
                    params = BulkParams(*thetas[row])
                    state = WalkerState(amps[row].copy(), 0)
                    single = to_vector(step(state, params, phi))
                    u = dense_step_matrix(params, phi, n_max, frame=frame)
                    got = to_vector(WalkerState(out[row], 1))
                    assert np.max(np.abs(got - single)) < 1e-12
                    assert np.max(np.abs(got - u @ to_vector(state))) < 1e-12


def same_bits(got, want):
    """Bit for bit, up to the sign of a zero."""
    return got.shape == want.shape and (got + 0.0).tobytes() == (want + 0.0).tobytes()


# 1, 9, 129 and 1025 are 1 mod 8, where OpenBLAS rounds a product's last column its own way
@pytest.mark.parametrize("width", [1, 2, 9, 24, 129, 1025])
@pytest.mark.parametrize("stack", [(), (3,), (2, 4)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_step_kernel_matches_the_shifted_step(width, stack, dtype):
    """The one-shot ``_advance``, folded coins and buffer offsets, against the
    step with explicit signed shifts: per-row coins, both boundary signs, real
    and complex states, bit for bit up to the sign of a zero."""
    for sign in (1.0, -1.0):
        amps = RNG.normal(size=stack + (2, width)).astype(dtype)
        if dtype is complex:
            amps += 1j * RNG.normal(size=amps.shape)
        first, second = (_coin_stack(RNG.uniform(-7.0, 7.0, size=stack)) for _ in range(2))
        before = amps.copy()
        got = _advance(amps, first, second, sign)
        np.testing.assert_array_equal(amps, before)  # input untouched
        assert got.dtype == amps.dtype
        assert same_bits(got, shifted_step(amps, first, second, sign))


# 134 and 262 steps end at full widths of 137 and 265 sites, both 1 mod 8
@pytest.mark.parametrize("steps", [134, 262])
@pytest.mark.parametrize("frame", ["walk", "chiral"])
def test_trajectory_at_widths_one_mod_eight_matches_the_shifted_steps(steps, frame):
    """Per-row, per-step coins and a kick: every state of every block equals the
    full-width ``shifted_step`` walk, bit for bit up to the sign of a zero."""
    angles = RNG.uniform(-7.0, 7.0, size=(steps, 2, 3))
    signs = RNG.choice([-1.0, 1.0], size=steps).tolist()
    kick = (steps // 2, steps // 4)
    want, turns = stepped(angles, signs, frame, kick)
    blocks = collect(_trajectory(angles, signs, frame, kick))
    states = [state for block, _ in blocks for state in block]
    assert len(states) == steps + 1 and blocks[-1][0].shape[-1] == steps + 3
    for state, full in zip(states, want):
        assert same_bits(state, full[..., :state.shape[-1]])
        assert not full[..., state.shape[-1]:].any()
    if frame == "chiral":
        assert same_bits(np.concatenate([turn for _, turn in blocks]), turns)


def collect(blocks):
    """Every (states, turns) block of a trajectory, copied as it is yielded: a
    block stays valid only until the generator resumes."""
    return [tuple(None if part is None else part.copy() for part in block) for block in blocks]


def assert_blocks_hold(blocks, want, turns):
    """The (states, turns) blocks hold the states of ``want`` in order, equal
    on each block's first W sites (a zero may differ in sign) and zero beyond,
    and the readout rotations of ``turns`` (None in the bare frame)."""
    states = [state for block, _ in blocks for state in block]
    assert len(states) == len(want)
    for state, full in zip(states, want):
        width = state.shape[-1]
        np.testing.assert_array_equal(state, full[..., :width])
        assert not full[..., width:].any()
    if turns is None:
        assert all(turn is None for _, turn in blocks)
    else:
        np.testing.assert_array_equal(np.concatenate([turn for _, turn in blocks]), turns)


def edge_start(shape, n_sites, dtype=float):
    """|0, down> for every walker of a stack ``shape`` on ``n_sites`` sites."""
    start = np.zeros(shape + (2, n_sites), dtype)
    start[..., 1, 0] = 1.0
    return start


def stepped(angles, signs, frame, kick=None, dtype=float):
    """Every state of a walk from |0, down>, full width, one ``shifted_step``
    and one merged coin per step, and the readout rotations H_t (None in the
    bare frame): the reference of ``_trajectory``, in its arithmetic up to the
    folded signs, with the same flush of subnormal amplitudes to +0.0 after
    every ``_SITE_CHUNK``-th step and its kick.  ``angles`` is (S, 2, ...)
    bare (theta1, theta2), S = len(signs) or 1."""
    half = 0.5 if frame == "chiral" else 0.0
    want = [edge_start(angles.shape[2:], len(signs) + 3, dtype)]
    turns = [np.broadcast_to(np.eye(2), angles.shape[2:] + (2, 2))]
    before = 0.0  # h_0: H_0 = 1
    for t, sign in enumerate(signs, 1):
        theta1, theta2 = angles[t - 1 if len(angles) > 1 else 0]
        turn = _coin_stack(theta1 * half)
        merged = _coin_stack(theta1 - theta1 * half + before)  # H_t H_{t-1}
        amps = shifted_step(want[-1], merged, _coin_stack(theta2), sign)
        if kick is not None and t == kick[0]:
            flip = turn.swapaxes(-1, -2) @ (turn * [[1.0], [-1.0]])
            spin = amps[..., kick[1]:kick[1] + 1]
            spin[...] = np.einsum("...ij,...jk->...ik", flip, spin)
        if t % lattice._SITE_CHUNK == 0:
            amps[np.abs(amps) < np.finfo(float).tiny] = 0.0
        want.append(amps)
        turns.append(turn)
        before = theta1 * half
    return want, (np.array(turns) if frame == "chiral" else None)


def test_trajectory_blocks_hold_every_state_in_order(monkeypatch):
    walkers, steps = 3, 23
    angles = RNG.uniform(-2 * math.pi, 2 * math.pi, size=(steps, 2, walkers))
    signs = RNG.choice([-1.0, 1.0], size=steps)
    before = angles.copy()
    want, turns = stepped(angles, signs, "chiral", kick=(9, 4))
    state_bytes = want[0].nbytes
    for block_bytes in (1, 5 * state_bytes, lattice._BLOCK_BYTES):
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block_bytes)
        blocks = collect(_trajectory(angles, signs, "chiral", kick=(9, 4)))
        rows = max(-(-8 // walkers), block_bytes // state_bytes)  # >= 8 walker-states
        assert [len(b) for b, _ in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1][0]) <= rows
        assert_blocks_hold(blocks, want, turns)
        np.testing.assert_array_equal(angles, before)  # input untouched
    # fixed angles, S = 1, are the same as those angles given for every step
    fixed = angles[:1, :, 0]
    for frame in ("walk", "chiral"):
        (block, turn), = _trajectory(fixed, signs, frame)
        (repeated, turn_again), = _trajectory(np.repeat(fixed, steps, axis=0), signs, frame)
        np.testing.assert_array_equal(block, repeated)
        np.testing.assert_array_equal(turn, turn_again)
        assert block.shape == (steps + 1, 2, steps + 3)
        assert_blocks_hold([(block, turn)], *stepped(fixed, signs, frame))


# The reference steps in float or complex arithmetic; the real walk matches both.
@pytest.mark.parametrize("frame", ["walk", "chiral"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("kick_site", [None, 40, 100, 250])
def test_trajectory_steps_only_the_light_cone(frame, sign, dtype, stack, kick_site):
    steps = 290
    n_sites = steps + 3
    angles = RNG.uniform(-7.0, 7.0, size=(1, 2) + stack)
    # after step 60 the support is sites 0..60 and the stepped width 128: site 40
    # lies inside the support, 100 outside it and 250 outside the stepped sites
    kick = None if kick_site is None else (60, kick_site)
    want, turns = stepped(angles, [sign] * steps, frame, kick, dtype)  # full-width stepping
    blocks = collect(_trajectory(angles, [sign] * steps, frame, kick))
    assert all(block.dtype == np.float64 for block, _ in blocks)
    assert_blocks_hold(blocks, want, turns)
    last = -1
    for block, _ in blocks:
        last += len(block)
        # the light cone of the block's last state plus one site, in whole chunks
        chunks = -(-(last + 2) // lattice._SITE_CHUNK)
        assert block.shape == (len(block),) + stack + (
            2, min(n_sites, chunks * lattice._SITE_CHUNK))
        assert len(block) == 1 or block.nbytes <= lattice._BLOCK_BYTES
    assert min(block.shape[-1] for block, _ in blocks) == lattice._SITE_CHUNK < n_sites
    if kick is not None:  # the kick flips amplitude inside the support, a zero outside
        flipped = want[kick[0]][..., 1, kick_site]
        if kick_site <= kick[0]:
            assert np.all(flipped != 0)
        else:
            assert not flipped.any()


# _BLOCK_BYTES for a (2, 2, 293) trajectory of 290 steps: one state per block;
# four at full width; and four at 128 sites, two at 256, then one at the full 293;
# each raised to the floor of four states (8 walker-states) a block
BLOCK_SIZES = {"one": 1, "many": 4 * 2 * 2 * 293 * 8, "settling": 2 * 2 * 2 * 293 * 8 - 1}
# and the (K, W) of the blocks: states 0..126 are stepped on 128 sites, 127..254
# on 256 and 255..290 on all 293, and the block that ends a width's run is cut
# short there (127 states come as 31 blocks of 4 and one of 3, or 14 of 9 and 1)
BLOCK_LAYOUTS = {"one": {(4, 128), (3, 128), (4, 256), (4, 293)},
                 "many": {(9, 128), (1, 128), (4, 256), (4, 293)},
                 "settling": {(4, 128), (3, 128), (4, 256), (4, 293)}}


@pytest.mark.parametrize("blocks_of", sorted(BLOCK_SIZES))
@pytest.mark.parametrize("per_step", [False, True])
@pytest.mark.parametrize("kick", [None, (7, 3)])
def test_trajectory_states_match_per_step_advance_after_collection(monkeypatch, blocks_of,
                                                                   per_step, kick):
    walkers, steps = 2, 290
    n_sites = steps + 3
    angles = RNG.uniform(-7.0, 7.0, size=(steps if per_step else 1, 2, walkers))
    signs = RNG.choice([-1.0, 1.0], size=steps).tolist()
    want, turns = stepped(angles, signs, "chiral", kick)
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", BLOCK_SIZES[blocks_of])
    blocks = collect(_trajectory(angles, signs, "chiral", kick))  # every block kept
    states = [state for block, _ in blocks for state in block]
    assert len(states) == steps + 1
    for state, full in zip(states, want):
        width = state.shape[-1]
        # bit for bit, up to the sign of a zero
        assert (state + 0.0).tobytes() == (full[..., :width] + 0.0).tobytes()
        assert not full[..., width:].any()
    assert np.concatenate([turn for _, turn in blocks]).tobytes() == turns.tobytes()
    assert {(len(block), block.shape[-1]) for block, _ in blocks} == BLOCK_LAYOUTS[blocks_of]
    assert blocks[-1][0].shape[-1] == n_sites


@pytest.mark.parametrize("frame", ["walk", "chiral"])
@pytest.mark.parametrize("run", [1, 3, 7, 50])
def test_trajectory_coin_runs_step_like_one_coin_pair_per_step(monkeypatch, frame, run):
    """Per-step coins, built in runs of steps, step as the per-step reference
    does; each step takes its merged first coin and its second coin from the
    run.  The kick's rotation is built once before stepping and, in the
    chiral frame, the readout rotations once as a table of every state's
    H_t, which each block takes its rows from, whatever runs it spans (more
    than two when a run is shorter than a block, ``run`` = 1 and 3 here)."""
    walkers, steps = 3, 50
    angles = RNG.uniform(-7.0, 7.0, size=(steps, 2, walkers))
    signs = RNG.choice([-1.0, 1.0], size=steps).tolist()
    want, turns = stepped(angles, signs, frame, kick=(11, 2))
    calls = []

    def counted(theta):
        calls.append(len(theta))
        return coin_stack(theta)

    coin_stack = lattice._coin_stack
    monkeypatch.setattr(lattice, "_coin_stack", counted)
    # the two coins of a step for 3 walkers are 2 * 4 * 3 doubles; ``run`` steps per block
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", run * 4 * angles[0].nbytes)
    blocks = collect(_trajectory(angles, signs, frame, kick=(11, 2)))
    table = [steps + 1] if frame == "chiral" else []
    # the kick's H_t (one angle per walker), the chiral table, then one call per coin run
    assert calls == [walkers] + table + [min(run, steps - lo) for lo in range(0, steps, run)]
    states = [state for block, _ in blocks for state in block]
    assert len(states) == steps + 1
    for state, full in zip(states, want):
        width = state.shape[-1]
        assert (state + 0.0).tobytes() == (full[..., :width] + 0.0).tobytes()
    if frame == "chiral":
        np.testing.assert_array_equal(np.concatenate([turn for _, turn in blocks]), turns)


def test_only_lattice_refers_to_the_step_kernel():
    """The step kernel ``_step`` and its one-shot wrapper ``_advance`` are
    stepped, and ``_coin_stack`` and ``_fold`` build the coins of a trajectory,
    only in ``lattice``: through ``_trajectory`` and the per-step functions.
    No other module grows a stepping loop or builds coins."""
    for kernel in ("_step", "_advance", "_coin_stack", "_fold", "_views"):
        users = set()
        for path in Path(lattice.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
                if kernel in names:
                    users.add(path.name)
        assert users == {"lattice.py"}, kernel


@pytest.mark.parametrize("per_step", [False, True])
@pytest.mark.parametrize("phi", [PHI_ZERO, PHI_PI])
@pytest.mark.parametrize("kick_site", [None, 5, 60])
def test_merged_coin_trajectory_matches_chiral_steps_and_kicks(per_step, phi, kick_site):
    """A stack of chiral-frame walkers stepped with merged coins, read through
    its readout rotations, against one ``chiral_step`` (and the
    ``sigma_z_kick``) per step for each walker: the same populations, spin
    readout and states within ``MERGED_TOL``."""
    walkers, steps = 3, 150
    angles = RNG.uniform(-7.0, 7.0, size=(steps if per_step else 1, 2, walkers))
    # after step 30 the support is sites 0..30: site 5 lies inside it, 60 outside
    kick = None if kick_site is None else (30, kick_site)
    blocks = collect(_trajectory(angles, [phi.sign] * steps, "chiral", kick))
    states = np.concatenate([np.pad(block, [(0, 0)] * 3 + [(0, steps + 3 - block.shape[-1])])
                             for block, _ in blocks])
    turns = np.concatenate([turn for _, turn in blocks])
    for walker in range(walkers):
        state = initial_state(steps + 2)
        chiral, records = [state.amps], [observable_record(0, state)]
        for t in range(1, steps + 1):
            state = chiral_step(state, BulkParams(*angles[t - 1 if per_step else 0, :, walker]),
                                phi)
            if kick is not None and t == kick[0]:
                state = sigma_z_kick(state, kick[1])
            chiral.append(state.amps)
            records.append(observable_record(t, state))
        ys, rotations = states[:, walker], turns[:, walker]
        table = _observables(_state_sums(ys, rotations, _moment_weights(steps + 3)))
        assert_close_to_chiral_steps(table, [[r.p_edge, r.sx0, r.sx1, r.mean_n, r.var_n, r.norm]
                                             for r in records])
        # populations read y directly; H_t turns y_t into the chiral state site by site
        assert np.abs(lattice._site_probabilities(ys) - lattice._site_probabilities(
            np.array(chiral))).max() <= MERGED_TOL["p_edge"]
        assert np.abs(rotations @ ys - np.array(chiral)).max() <= MERGED_TOL["amps"]


def test_the_step_kernel_has_one_frame_and_only_lattice_branches_on_frames():
    """``_step`` makes the bare step along one code path and takes no frame,
    and the one-shot ``_advance`` wraps it without a branch; ``_trajectory``
    and ``_advance`` alone call it, so one step body serves both.  The chiral
    frame is a readout, built only in ``lattice``: no other module compares a
    value with "chiral", so no other module can fork on the frame.
    (Validating a frame name against the tuple of both is not a fork.)"""
    assert list(inspect.signature(_advance).parameters) == ["amps", "first", "second", "sign"]
    assert "frame" not in inspect.signature(lattice._step).parameters
    source = ast.parse(Path(lattice.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in source.body if isinstance(node, ast.FunctionDef)}
    for name in ("_step", "_advance"):
        assert not any(isinstance(node, (ast.If, ast.IfExp, ast.For, ast.While, ast.Match,
                                         ast.comprehension))
                       for node in ast.walk(functions[name])), name
    callers = {name for name, function in functions.items()
               for node in ast.walk(function)
               if isinstance(node, ast.Name) and node.id == "_step"}
    assert callers == {"_advance", "_trajectory"}
    users = set()
    for path in Path(lattice.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    if isinstance(operand, ast.Constant) and operand.value == "chiral":
                        users.add(path.name)
    assert users == {"lattice.py"}


@pytest.mark.parametrize("frame,step", [("walk", floquet_step), ("chiral", chiral_step)])
@pytest.mark.parametrize("phi", [PHI_ZERO, PHI_PI])
@pytest.mark.parametrize("steps", [0, 1, 126, 200])  # 126: the last block has 128 of 129 sites
def test_walk_table_matches_evolve_with_records(frame, step, phi, steps):
    params = BulkParams(math.pi / 2, math.pi / 8)
    final = initial_state(steps + 2)
    records = [observable_record(0, final)]
    for k in range(1, steps + 1):
        final = step(final, params, phi)
        records.append(observable_record(k, final))
    table, state = walk_table(params, phi, steps, frame)
    want = np.array([[r.step, r.p_edge, r.sx0, r.sx1, r.mean_n, r.var_n, r.norm]
                     for r in records])
    assert table.shape == (steps + 1, 6)
    np.testing.assert_array_equal(want[:, 0], np.arange(steps + 1))
    if frame == "walk":  # equal numbers, nan in the same places
        np.testing.assert_array_equal(np.isnan(table), np.isnan(want[:, 1:]))
        np.testing.assert_array_equal(table, want[:, 1:])
        np.testing.assert_array_equal(state.amps, final.amps)
    else:  # merged coins round differently from one chiral_step per step
        assert_close_to_chiral_steps(table, want[:, 1:])
        assert np.abs(state.amps - final.amps).max() <= MERGED_TOL["amps"]
    assert state.step_count == final.step_count == steps
    evolved = evolve(initial_state(steps + 2), params, phi, steps, step=step)
    np.testing.assert_array_equal(evolved.amps, final.amps)


def test_walk_table_does_not_depend_on_the_block_size(monkeypatch):
    params = BulkParams(-2.1, 0.7)
    for frame in ("walk", "chiral"):
        table, state = walk_table(params, PHI_PI, 120, frame)
        state_bytes = 2 * 123 * 8  # 121 states
        for block_bytes in (1, 9 * state_bytes, 11 * state_bytes - 1):  # 1, 9, 10 states
            monkeypatch.setattr(lattice, "_BLOCK_BYTES", block_bytes)
            again, last = walk_table(params, PHI_PI, 120, frame)
            np.testing.assert_array_equal(again, table)
            np.testing.assert_array_equal(last.amps, state.amps)
        monkeypatch.undo()


@pytest.mark.parametrize("frame", ["walk", "chiral"])
def test_trajectory_flushes_its_subnormal_tail(monkeypatch, frame):
    """At (0.9 pi, 0.9 pi) the amplitude ahead of the bulk underflows within 200
    steps.  No subnormal amplitude is left after a ``_SITE_CHUNK``-th step; the
    table and final state do not depend on the block size; the table is bit for
    bit that of unflushed stepping, and the final state moves only where the
    unflushed amplitude is below 1e-280, by at most 1e-300."""
    tiny = np.finfo(float).tiny
    params, steps = BulkParams(0.9 * math.pi, 0.9 * math.pi), 400
    angles = np.array([[params.theta1, params.theta2]])

    def subnormals():
        """The count of subnormal amplitudes in states 128, 256 and 384."""
        counts, t = [], -1
        for states, _ in _trajectory(angles, [1.0] * steps, frame):
            for state in states:
                t += 1
                if t in (128, 256, 384):
                    counts.append(int(np.count_nonzero((np.abs(state) < tiny) & (state != 0))))
        return counts

    assert subnormals() == [0, 0, 0]
    table, final = walk_table(params, PHI_ZERO, steps, frame)
    for block_bytes in (1, 5 * 2 * (steps + 3) * 8, 1 << 20):
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block_bytes)
        again, last = walk_table(params, PHI_ZERO, steps, frame)
        assert again.tobytes() == table.tobytes()
        assert last.amps.tobytes() == final.amps.tobytes()
    # one chunk wider than the lattice: every state at full width, never flushed
    monkeypatch.setattr(lattice, "_SITE_CHUNK", steps + 4)
    unflushed = subnormals()
    assert unflushed[0] == 0 and unflushed[1] > 0 and unflushed[2] > 0
    again, last = walk_table(params, PHI_ZERO, steps, frame)
    assert again.tobytes() == table.tobytes()
    moved = last.amps != final.amps
    assert moved.any() and np.all(np.abs(last.amps[moved]) < 1e-280)
    assert np.abs(last.amps - final.amps).max() <= 1e-300


def test_trajectory_block_counts(monkeypatch):
    """Work, not time: every block holds states of one stepped width.  The
    4000-step walk of a lone walker comes in 478 blocks of at least 8 states
    but where a width's run ends (2578 blocks of up to 64 KB before the
    floor); a 200-step walk and a 300-step quench in 8 and 16.  One 39-walker
    sweep stack of 100 steps and the fig6c ramp, read at the edge, come in 40
    and 100 (101 and 149 at full width)."""
    counts = []

    def counted(*args, **kwargs):
        counts.append(0)
        for block in trajectory(*args, **kwargs):
            counts[-1] += 1
            yield block

    trajectory = lattice._trajectory
    monkeypatch.setattr(analysis, "_trajectory", counted)  # its one caller
    walk_table(BulkParams(math.pi / 2, 0.0), PHI_ZERO, 4000)
    walk_table(BulkParams(math.pi / 2, math.pi / 8), PHI_ZERO, 200)
    quench.quench_table(quench.scenario("fig6c").protocol(nq=10, post=270))
    points = BulkParams(np.linspace(-3.0, 3.0, 39), np.linspace(-2.0, 2.0, 39))
    analysis.sweep_edge_populations(points, PHI_ZERO, 100)
    quench.ramp_survival_curve(quench.scenario("fig6c"), range(1, 49))
    assert counts == [478, 8, 16, 40, 100]


# Steps around the first widths of 8 and 16 sites (9 and 17: 1 mod 8) and around
# the first 128-site chunk and subnormal flush.
EDGE_STEPS = [0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 127, 128, 129]


def edge_width(t, steps):
    """Sites stepped for state t when only sites 0 and 1 are read: those that can
    still reach them by the last step, in multiples of 8, at most the lattice."""
    return min(steps + 3, -(-min(t + 2, steps + 3 - t) // 8) * 8)


def edge_of(blocks):
    """P_edge = p_0 + p_1 of every state of a trajectory's blocks, in order."""
    return np.concatenate([lattice._site_probabilities(states[..., :2]).sum(-1)
                           for states, _ in blocks])


@pytest.mark.parametrize("steps", EDGE_STEPS)
@pytest.mark.parametrize("walkers", [1, 39, 256])
def test_edge_read_trajectory_is_the_forward_cone_bit_for_bit(monkeypatch, steps, walkers):
    """Read on sites 0 and 1 only, a trajectory steps each state on the sites
    that can still reach them, in blocks of one width each.  Every state's
    P_edge is bit for bit that of stepping the whole forward cone, with
    seeded random per-step angles, random boundary signs and a kick."""
    rng = np.random.default_rng([steps, walkers])
    angles = rng.uniform(-7.0, 7.0, size=(max(steps, 1), 2, walkers))
    signs = rng.choice([-1.0, 1.0], size=steps).tolist()
    kick = (steps // 2, steps // 3 + 1) if steps > 1 else None
    widths = []

    def checked(prev, first, second, sign, scratch, out, head):
        widths.append(out.shape[-1])
        step(prev, first, second, sign, scratch, out, head)

    step = lattice._step
    monkeypatch.setattr(lattice, "_step", checked)
    blocks = collect(_trajectory(angles, signs, "chiral", kick, reads=2))
    assert edge_of(blocks).tobytes() == forward_cone_edge_populations(angles, signs,
                                                                      kick).tobytes()
    assert widths == [edge_width(t, steps) for t in range(1, steps + 1)]
    assert [block.shape[-1] for block, _ in blocks] == [
        edge_width(t, steps) for t in np.cumsum([0] + [len(block) for block, _ in blocks[:-1]])]


@pytest.mark.parametrize("steps", EDGE_STEPS)
@pytest.mark.parametrize("phi", [PHI_ZERO, PHI_PI])
def test_sweep_reads_the_forward_cones_edge_in_stacks_of_1_39_and_256(monkeypatch, steps, phi):
    """The sweep's final P_edge at seeded random points is bit for bit that of
    stepping the whole forward cone, whatever the stack size: 1, 39 (6 stacks
    for 234 points) and 256 walkers a stack, and 256 points under a cap of 39
    split evenly into the fewest stacks, 4 of 37 and 3 of 36."""
    rng = np.random.default_rng(steps)
    theta = rng.uniform(-7.0, 7.0, size=(2, 256))
    want = forward_cone_edge_populations(theta[None], [phi.sign] * steps)[-1]
    widest = max(edge_width(t, steps) for t in range(steps + 1))
    stacks = []

    def recorded(angles, *args, **kwargs):
        stacks.append(angles.shape[-1])
        return trajectory(angles, *args, **kwargs)

    trajectory = analysis._trajectory
    monkeypatch.setattr(analysis, "_trajectory", recorded)
    for cap, points, want_stacks in ((1, 5, [1] * 5), (39, 234, [39] * 6),
                                     (39, 256, [37] * 4 + [36] * 3), (256, 256, [256])):
        stacks.clear()
        # the sweep fits a stack's widest stepped state into 2 x _BLOCK_BYTES
        monkeypatch.setattr(analysis, "_BLOCK_BYTES", cap * widest * 8)
        got = analysis.sweep_edge_populations(BulkParams(*theta[:, :points]), phi, steps)
        assert got.tobytes() == want[:points].tobytes()
        assert stacks == want_stacks


@pytest.mark.parametrize("steps", [s for s in EDGE_STEPS if s >= 15])
def test_ramp_reads_the_forward_cones_edge_at_every_step(monkeypatch, steps):
    """The ramp's P_edge after every step is bit for bit that of stepping the
    whole forward cone: seeded random ramps in both boundary phases, with a
    phi flip and a kick, and the kick scenario fig6d-kick."""
    rng = np.random.default_rng(steps)
    n0, post = 4, 5
    nqs = sorted({steps - n0 - post, *rng.integers(1, steps - n0 - post, size=5).tolist()})
    flip = quench.QuenchScenario("random", BulkParams(*rng.uniform(-7.0, 7.0, 2)),
                                 BulkParams(*rng.uniform(-7.0, 7.0, 2)), PHI_ZERO, PHI_PI,
                                 kick=2)
    stay = flip._replace(phi_initial=PHI_PI, kick=None)
    seen = []

    def recorded(p):
        seen.append(edge(p))
        return seen[-1]

    edge = analysis._edge_populations
    monkeypatch.setattr(analysis, "_edge_populations", recorded)
    for sc in (flip, stay, quench.scenario("fig6d-kick")):
        seen.clear()
        quench.ramp_survival_curve(sc, nqs, n0=n0, post=post)
        angles, signs, kick = quench._schedule(sc, n0, nqs, steps)
        assert len(signs) == steps
        want = forward_cone_edge_populations(angles, signs, kick)
        assert np.concatenate(seen).tobytes() == want.tobytes()


def test_site_steps_of_edge_and_full_readers(monkeypatch):
    """Work, not time: the stepped sites times the walkers, summed over the
    step kernel's calls.  Read at the edge, the 256-point, 100-step sweep
    steps 3104 sites a walker (10300 on the whole forward cone) and the fig6c
    ramp 6368 (19450).  Read in full, a 200- and a 4000-step walk and a
    300-step quench step each state on its own chunked width."""
    total = []

    def counted(prev, first, second, sign, scratch, out, head):
        total[-1] += out.size // 2
        step(prev, first, second, sign, scratch, out, head)

    def count(run, *args):
        total.append(0)
        run(*args)
        return total[-1]

    step = lattice._step
    monkeypatch.setattr(lattice, "_step", counted)
    grid = (2 * np.arange(16) + 1) * math.pi / 16 - math.pi
    points = BulkParams(np.repeat(grid, 16), np.tile(grid, 16))
    assert count(analysis.sweep_edge_populations, points, PHI_ZERO, 100) == 256 * 3104
    assert count(quench.ramp_survival_curve, quench.scenario("fig6c"), range(1, 49)) == 48 * 6368
    assert count(walk_table, BulkParams(math.pi / 2, math.pi / 8), PHI_ZERO, 200) == 31150
    assert count(walk_table, BulkParams(math.pi / 2, 0.0), PHI_ZERO, 4000) == 8262310
    assert count(quench.quench_table, quench.scenario("fig6c").protocol(nq=10, post=270)) == 62834


def test_every_block_holds_states_of_one_stepped_width(monkeypatch):
    """The walk, the quench, the sweep and the ramp: the states of every block
    of each trajectory share one ``_stepped_widths`` width, the block's own,
    and the step kernel steps each state 1..steps on exactly that width."""
    stepped = []

    def recorded(angles, signs, frame, kick=None, reads=None):
        steps = len(signs)
        widths = lattice._stepped_widths(steps, steps + 3 if reads is None else reads).tolist()
        stepped.clear()
        t = 0
        for states, turns in trajectory(angles, signs, frame, kick, reads):
            assert set(widths[t:t + len(states)]) == {states.shape[-1]}
            t += len(states)
            yield states, turns
        assert t == steps + 1 and stepped == widths[1:]
        runs.append(steps)

    def checked(prev, first, second, sign, scratch, out, head):
        stepped.append(out.shape[-1])
        step(prev, first, second, sign, scratch, out, head)

    trajectory, step, runs = lattice._trajectory, lattice._step, []
    monkeypatch.setattr(analysis, "_trajectory", recorded)
    monkeypatch.setattr(lattice, "_step", checked)
    walk_table(BulkParams(math.pi / 2, math.pi / 8), PHI_ZERO, 200, "walk")
    walk_table(BulkParams(math.pi / 2, 0.0), PHI_ZERO, 4000)
    quench.quench_table(quench.scenario("fig6d-kick").protocol(nq=10, post=270))
    grid = (2 * np.arange(16) + 1) * math.pi / 16 - math.pi
    analysis.sweep_edge_populations(BulkParams(np.repeat(grid, 16), np.tile(grid, 16)),
                                    PHI_ZERO, 100)
    quench.ramp_survival_curve(quench.scenario("fig6c"), range(1, 49))
    assert runs == [200, 4000, 300, 100, 100, 148]  # the sweep: 2 stacks of 128


def test_edge_readers_peak_memory():
    """The tracemalloc peaks of the 256-point, 100-step sweep and of the fig6c
    ramp stay at or below those of stepping the whole forward cone (292232
    and 847752 bytes, numpy 2.4.6 on x86-64): the sweep's wider stacks fit
    the same bytes, so more walkers cannot grow its memory unseen."""
    grid = (2 * np.arange(16) + 1) * math.pi / 16 - math.pi
    points = BulkParams(np.repeat(grid, 16), np.tile(grid, 16))
    for run, args, bound in (
            (analysis.sweep_edge_populations, (points, PHI_ZERO, 100), 292232),
            (quench.ramp_survival_curve, (quench.scenario("fig6c"), range(1, 49)), 847752)):
        run(*args)  # warm: caches and first-call allocations
        tracemalloc.start()
        try:
            run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, run.__name__


def test_full_readers_peak_memory():
    """The tracemalloc peaks of the 4000-step walk in both frames and the
    300-step fig6c quench, all read in full, stay within the blocks of one
    buffer and one site-probability scratch (1588486, 1590146 in the chiral
    frame, and 211064 bytes, numpy 2.4.6 on x86-64), with the same ~10%
    headroom as before; fresh probabilities per block peaked at 1895164 and
    346284, and blocks taking turns in a pair of buffers at 2428060 and
    415508.  The chiral walk is what the ``walk`` subcommand runs."""
    for run, args, bound in (
            (walk_table, (BulkParams(math.pi / 2, 0.0), PHI_ZERO, 4000), 1_760_000),
            (walk_table, (BulkParams(math.pi / 2, 0.0), PHI_ZERO, 4000, "chiral"), 1_760_000),
            (quench.quench_table, (quench.scenario("fig6c").protocol(nq=10, post=270),),
             232_000)):
        run(*args)  # warm: caches and first-call allocations
        tracemalloc.start()
        try:
            run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, run.__name__


@pytest.mark.parametrize("frame", ["walk", "chiral"])
def test_trajectory_peak_memory(frame):
    """The tracemalloc peak of the 4000-step walk's ``_trajectory`` alone, at
    (pi/2, 0), with no reader: the states buffer, the scratch row and the
    row views of the current run of one width only (745004 bytes, 746388 in
    the chiral frame, numpy 2.4.6 on x86-64), with ~10% headroom.  Keeping
    every run's row views to the end of the trajectory peaks at 852484;
    writing every step's rotation, with views made per step, peaked at
    797028."""
    angles = np.array([[math.pi / 2, 0.0]])

    def run():
        for _ in _trajectory(angles, [1.0] * 4000, frame):
            pass

    run()  # warm: caches and first-call allocations
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 821_000


def test_one_block_plan_per_full_read():
    """A ``walk_table`` or ``quench_table`` call evaluates one block plan: the
    reader sizes its scratch from it and ``_trajectory`` lays out its blocks
    and buffers from the same one (one miss, one hit).  Asking for the same
    plan again evaluates none."""
    plans = lattice._layout_runs
    plans.cache_clear()
    for run, args, evaluated in (
            (walk_table, (BulkParams(math.pi / 2, 0.0), PHI_ZERO, 4000), 1),
            (walk_table, (BulkParams(math.pi / 2, math.pi / 8), PHI_ZERO, 200, "chiral"), 1),
            (quench.quench_table, (quench.scenario("fig6c").protocol(nq=10, post=270),), 1),
            (quench.quench_table, (quench.scenario("fig6d-kick").protocol(nq=10, post=270),), 0),
            (quench.quench_table, (quench.scenario("fig6c").protocol(),), 1)):
        before = plans.cache_info()
        run(*args)
        after = plans.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (evaluated,
                                                                            2 - evaluated)


def test_every_block_is_a_view_of_one_buffer():
    """A 400-step chiral walk comes in 27 blocks, and every later block's
    states and readout rotations share memory with the first block's: one
    states buffer and one rotations buffer hold the whole trajectory."""
    angles = RNG.uniform(-7.0, 7.0, size=(400, 2, 1))
    blocks = list(_trajectory(angles, [1.0] * 400, "chiral"))  # views, not values
    (states, turns), later = blocks[0], blocks[1:]
    assert len(later) == 26
    for block_states, block_turns in later:
        assert np.shares_memory(block_states, states)
        assert np.shares_memory(block_turns, turns)


def test_walk_table_rejects_an_unknown_frame():
    with pytest.raises(ValueError, match="frame must be walk or chiral"):
        walk_table(BulkParams(1.0, 0.5), PHI_ZERO, 10, "lab")


def test_vector_round_trip_and_amplitude_shape():
    real = RNG.normal(size=14)
    for vec in (real, real + 1j * RNG.normal(size=14)):
        state = from_vector(vec, step_count=3)
        assert state.amps.shape == (2, 7)
        assert state.n_max == 6 and state.step_count == 3
        assert state.amps.dtype == vec.dtype
        np.testing.assert_array_equal(state.up, vec[0::2])
        np.testing.assert_array_equal(state.down, vec[1::2])
        np.testing.assert_array_equal(to_vector(state), vec)
    single = from_vector(np.array([0.6, 0.8]))
    to_vector(single)[0] = 7.0  # the vector is a copy, also on one site
    assert single.up[0] == 0.6
    for bad in (np.zeros(7), np.zeros((3, 7)), np.zeros((2, 3, 4))):
        with pytest.raises(ValueError):
            WalkerState(bad, 0)
    with pytest.raises(ValueError):
        from_vector(np.zeros(7))


def test_light_cone_locality():
    state = initial_state(20)
    params = BulkParams(1.0, 0.5)
    for step in range(1, 12):
        state = floquet_step(state, params, PHI_ZERO)
        p = state.site_probabilities()
        assert np.all(p[step + 1:] == 0.0)


def test_four_pi_periodicity_of_step_matrix():
    params = BulkParams(0.63, -1.17)
    shifted = BulkParams(0.63 + 4 * math.pi, -1.17)
    a = build_step_matrix(params, PHI_ZERO, 16)
    b = build_step_matrix(shifted, PHI_ZERO, 16)
    assert np.max(np.abs(a - b)) < 1e-12


def test_two_pi_shift_flips_overall_sign():
    a = build_step_matrix(BulkParams(0.63, -1.17), PHI_ZERO, 12)
    b = build_step_matrix(BulkParams(0.63 + 2 * math.pi, -1.17), PHI_ZERO, 12)
    assert np.max(np.abs(a + b)) < 1e-12


def test_guard_band_violation_raised():
    state = initial_state(10, site=10, spin="down")
    with pytest.raises(GuardBandViolation):
        floquet_step(state, BulkParams(1.0, 1.0), PHI_ZERO)


def test_evolve_requires_headroom():
    with pytest.raises(GuardBandViolation):
        evolve(initial_state(10), BulkParams(1.0, 0.0), PHI_ZERO, steps=9)


def test_evolve_zero_steps_is_identity():
    state = initial_state(8)
    out = evolve(state, BulkParams(1.0, 1.0), PHI_ZERO, steps=0)
    np.testing.assert_array_equal(out.down, state.down)


def test_sigma_z_kick_flips_plus_to_minus():
    state = initial_state(4)
    state.up[0] = state.down[0] = 1 / math.sqrt(2)
    out = sigma_z_kick(state, 0)
    assert out.down[0] == pytest.approx(-1 / math.sqrt(2))
    assert out.up[0] == pytest.approx(1 / math.sqrt(2))


def test_sigma_z_kick_trivial_on_up_and_involutive():
    state = initial_state(4, spin="up")
    out = sigma_z_kick(state, 0)
    np.testing.assert_array_equal(out.up, state.up)
    state = initial_state(30)
    state = floquet_step(state, BulkParams(1.1, 0.3), PHI_ZERO)
    twice = sigma_z_kick(sigma_z_kick(state, 1), 1)
    assert np.max(np.abs(twice.down - state.down)) < 1e-15


def test_sigma_z_kick_site_range():
    with pytest.raises(SiteOutOfRange):
        sigma_z_kick(initial_state(4), 5)
