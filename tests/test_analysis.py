import ast
import math
from pathlib import Path

import numpy as np
import pytest

from fockwalk import analysis, lattice
from fockwalk.analysis import (
    EIGENPHASE_TOL,
    OCCUPATION_FLOOR,
    _edge_populations,
    detect_stabilization,
    edge_eigenmodes,
    observable_record,
    observable_table,
    walk_table,
)
from fockwalk.lattice import (
    PHI_PI,
    PHI_ZERO,
    BulkParams,
    WalkerState,
    chiral_step,
    initial_state,
)
from fockwalk.momentum import (
    bound_state_channels,
    predict_bound_states,
    quasienergy_gaps,
    virtual_bulk_params,
)
from oracle import (
    InsufficientSupport,
    dense_edge_eigenmodes,
    dense_step_matrix,
    fit_localization,
    from_vector,
    successive_ratios,
    to_vector,
)

RNG = np.random.default_rng(5)
GOLD_RATIO = (math.sqrt(2) - 1) ** 2  # zero-mode site ratio at (pi/2, 0)


def relax(params, phi, steps, n_max=None):
    state = initial_state(n_max if n_max else steps + 4)
    for _ in range(steps):
        state = chiral_step(state, params, phi)
    return state


def test_edge_population_basics():
    assert observable_record(0, initial_state(12)).p_edge == pytest.approx(1.0)
    uniform = initial_state(99)
    uniform.up[:] = 0.0
    uniform.down[:] = 1.0 / math.sqrt(100)
    assert observable_record(0, uniform).p_edge == pytest.approx(0.02)


def test_spin_expectation_examples():
    plus = initial_state(4)
    plus.up[0] = plus.down[0] = 1 / math.sqrt(2)
    assert observable_record(0, plus).sx0 == pytest.approx(1.0)
    minus = initial_state(4)
    minus.up[0], minus.down[0] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert observable_record(0, minus).sx0 == pytest.approx(-1.0)
    assert observable_record(0, initial_state(4, spin="up")).sx0 == pytest.approx(0.0)
    unoccupied = observable_record(0, initial_state(4, site=3))
    assert math.isnan(unoccupied.sx0) and math.isnan(unoccupied.sx1)


def test_phonon_moments_examples():
    rec = observable_record(0, initial_state(8))
    assert (rec.mean_n, rec.var_n) == (0.0, 0.0)
    state = initial_state(8, spin="up")
    state.up[0] = state.up[2] = 1 / math.sqrt(2)
    rec = observable_record(0, state)
    assert rec.mean_n == pytest.approx(1.0)
    assert rec.var_n == pytest.approx(1.0)


def test_observable_record_marks_unoccupied_spin():
    rec = observable_record(0, initial_state(6))
    assert rec.p_edge == pytest.approx(1.0)
    assert math.isnan(rec.sx1)
    assert rec.norm == pytest.approx(1.0)


def test_observable_record_agrees_with_the_public_helpers():
    n_max = 40
    states = [relax(BulkParams(math.pi / 2, 0.0), PHI_ZERO, 30, n_max=n_max),
              relax(BulkParams(-2.1, 0.7), PHI_PI, 30, n_max=n_max)]
    for trial in range(12):
        vec = RNG.normal(size=2 * (n_max + 1))
        if trial % 2:
            vec = vec + 1j * RNG.normal(size=vec.size)
        vec[2 * (trial % 3):2 * (trial % 3) + 2] *= 1e-6  # site 0, 1 or 2 unoccupied
        states.append(from_vector(vec / np.linalg.norm(vec)))
    for state in states:
        rec = observable_record(7, state)
        assert rec.step == 7
        p_edge, sx0, sx1, mean, var, norm = direct_observable_table(state.amps[None])[0]
        assert abs(rec.p_edge - p_edge) < 1e-14
        for site, sx, want in ((0, rec.sx0, sx0), (1, rec.sx1, sx1)):
            if state.site_probabilities()[site] < OCCUPATION_FLOOR:
                assert math.isnan(sx) and math.isnan(want)
            else:
                assert abs(sx - want) < 1e-14
        assert abs(rec.mean_n - mean) < 1e-14 * max(1.0, mean)
        assert abs(rec.var_n - var) < 1e-14 * max(1.0, var)
        assert abs(rec.norm - norm) < 1e-14


def test_observable_table_rows_are_the_records_of_each_state():
    n_max = 25
    states = []
    for trial in range(9):
        vec = RNG.normal(size=2 * (n_max + 1)) + 1j * RNG.normal(size=2 * (n_max + 1))
        vec[2 * (trial % 3):2 * (trial % 3) + 2] *= 1e-6  # site 0, 1 or 2 unoccupied
        states.append(vec.reshape(-1, 2).T / np.linalg.norm(vec))
    block = np.array(states)
    table = observable_table(block)
    assert table.shape == (9, 6) and table.dtype == np.float64
    for row, amps in zip(table, states):
        rec = observable_record(0, WalkerState(amps, 0))
        want = [rec.p_edge, rec.sx0, rec.sx1, rec.mean_n, rec.var_n, rec.norm]
        np.testing.assert_array_equal(row, want)
    assert np.isnan(table[0::3, 1]).all() and np.isnan(table[1::3, 2]).all()
    assert not np.isnan(table[2::3, 1:3]).any()


def random_block(rows, width, occupied, complex_=False):
    """``rows`` random states on ``width`` sites, zero beyond ``occupied``."""
    states = RNG.normal(size=(rows, 2, width))
    if complex_:
        states = states + 1j * RNG.normal(size=states.shape)
    states[:, :, occupied:] = 0.0
    states[::3, :, :2] *= 1e-6  # some unoccupied boundary sites
    return states / np.sqrt(np.sum(np.abs(states) ** 2, axis=(1, 2)))[:, None, None]


def test_observable_table_rows_ignore_zero_padding_and_blocking():
    for trial in range(120):
        rows, occupied = int(RNG.integers(1, 9)), int(RNG.integers(2, 700))
        width = occupied + int(RNG.integers(0, 300))
        states = random_block(rows, width, occupied, complex_=trial % 2 == 1)
        table = observable_table(states)
        padded = np.zeros(states.shape[:2] + (width + int(RNG.integers(1, 400)),),
                          states.dtype)
        padded[..., :width] = states
        cut = int(RNG.integers(0, rows + 1))
        for other in (observable_table(padded),
                      observable_table(states[:, :, :occupied]),
                      np.concatenate([observable_table(states[:cut]),
                                      observable_table(states[cut:])])):
            assert other.tobytes() == table.tobytes()  # same bits, nan included


def test_state_sums_reusing_one_scratch_change_no_bit():
    """Blocks of 1-16 rows whose widths grow, shrink and are mostly not
    multiples of 128, real and complex, some with readout rotations, reduced
    one after another into one shared scratch: every block's sums and
    observables have the bits of a fresh scratch, nan included, so the
    probabilities a wider block left in the scratch never reach the moments.
    For real states the scratch holds ``_site_probabilities`` bit for bit."""
    rng = np.random.default_rng(31)
    widths = [700, 129, 1000, 3, 255, 256, 257, 1201, 130, 1, 640, 2, 383, 1300]
    widths += rng.integers(1, 1301, size=150).tolist()
    scratch = np.zeros(16 * 1408)  # 16 rows of 1300 sites padded to 1408
    weights = analysis._moment_weights(1300)
    stale = 0
    for trial, width in enumerate(widths):
        rows = int(rng.integers(1, 17))
        states = rng.normal(size=(rows, 2, width))
        if trial % 2:
            states = states + 1j * rng.normal(size=states.shape)
        states[::3, :, :2] *= 1e-6  # an unoccupied edge: nan spin readouts
        turns = None
        if trial % 3 == 0:
            angle = rng.uniform(-7.0, 7.0, size=rows)
            turns = np.stack([[np.cos(angle), -np.sin(angle)],
                              [np.sin(angle), np.cos(angle)]]).transpose(2, 0, 1)
        padded = analysis._padded(width)
        stale += bool(scratch[:rows * padded].reshape(rows, padded)[:, width:].any())
        fresh = analysis._state_sums(states, turns, weights)
        shared = analysis._state_sums(states, turns, weights, scratch)
        assert shared.tobytes() == fresh.tobytes(), (trial, rows, width)
        assert (analysis._observables(shared).tobytes()
                == analysis._observables(fresh).tobytes())
        p = scratch[:rows * padded].reshape(rows, padded)
        if not trial % 2:
            assert p[:, :width].tobytes() == lattice._site_probabilities(states).tobytes()
        assert not p[:, width:].any()
    assert stale > 100  # most blocks had an earlier block's values in their padding


def direct_observable_table(states):
    """The observables with plain full-width sums, kept as the oracle."""
    weights = np.abs(states) ** 2
    p = weights[:, 0] + weights[:, 1]
    total = p.sum(axis=1)
    sites = np.arange(p.shape[1], dtype=float)
    table = np.empty((len(p), 6))
    table[:, 0] = p[:, 0] + p[:, 1]
    edge = p[:, :2]
    spin = 2.0 * np.real(states[:, 0, :2] * np.conj(states[:, 1, :2]))
    table[:, 1:3] = math.nan
    np.divide(spin, edge, out=table[:, 1:3], where=edge >= OCCUPATION_FLOOR)
    mean = (p * sites).sum(axis=1) / total
    table[:, 3] = mean
    table[:, 4] = np.maximum((p * sites**2).sum(axis=1) / total - mean**2, 0.0)
    table[:, 5] = np.sqrt(total)
    return table


def test_observable_table_matches_the_direct_sums():
    for trial in range(120):
        occupied = int(RNG.choice([3, 50, 127, 128, 129, 1000, 4003]))
        width = occupied + int(RNG.integers(0, 200))
        states = random_block(int(RNG.integers(1, 6)), width, occupied,
                              complex_=trial % 2 == 1)
        table, ref = observable_table(states), direct_observable_table(states)
        np.testing.assert_array_equal(np.isnan(table), np.isnan(ref))
        np.testing.assert_array_equal(table[:, :3], ref[:, :3])  # p_edge, sx0, sx1
        assert np.all(np.abs(table[:, 3:] - ref[:, 3:])
                      <= 1e-12 * np.maximum(1.0, np.abs(ref[:, 3:])))


def test_eigenmodes_at_anchor_single_zero_mode():
    modes = edge_eigenmodes(BulkParams(math.pi / 2, 0.0), PHI_ZERO, n_max=64)
    assert [m.mode_class for m in modes] == ["zero"]
    mode = modes[0]
    assert mode.edge_weight > 0.9
    p = mode.site_probabilities()
    assert p[1] / p[0] == pytest.approx(GOLD_RATIO, abs=1e-12)
    assert p[2] / p[1] == pytest.approx(GOLD_RATIO, abs=1e-10)


def test_eigenmodes_trivial_phase_empty():
    assert edge_eigenmodes(BulkParams(math.pi / 2, -2 * math.pi / 3), PHI_ZERO, n_max=64) == []


def test_eigenmodes_both_channels():
    modes = edge_eigenmodes(BulkParams(-math.pi / 8, math.pi / 4), PHI_ZERO, n_max=64)
    assert sorted(m.mode_class for m in modes) == ["pi", "zero"]
    pi_mode = next(m for m in modes if m.mode_class == "pi")
    assert pi_mode.eigenphase == pytest.approx(math.pi, abs=1e-9)


def test_eigenmode_counts_match_prediction_for_random_draws():
    # gapped draws (both real and virtual bulk) so the truncated lattice
    # resolves every mode
    count = 0
    while count < 30:
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        phi = PHI_ZERO if RNG.integers(2) == 0 else PHI_PI
        gaps = quasienergy_gaps(params)
        vgaps = quasienergy_gaps(virtual_bulk_params(params.theta1, phi))
        if min(gaps.delta0, gaps.delta_pi, vgaps.delta0, vgaps.delta_pi) < 0.2:
            continue
        count += 1
        predicted = predict_bound_states(params, phi)
        modes = edge_eigenmodes(params, phi, n_max=96)
        got = (sum(1 for m in modes if m.mode_class == "zero"),
               sum(1 for m in modes if m.mode_class == "pi"))
        assert got == predicted, f"params={params}, phi={phi.phi}"


def test_eigenmodes_agree_with_dense_eig():
    # the symmetric-part oracle against the general eigensolver on U itself
    rng = np.random.default_rng(17)
    for i in range(120):
        params = BulkParams(*rng.uniform(-2 * math.pi, 2 * math.pi, 2))
        phi = PHI_ZERO if i % 2 == 0 else PHI_PI
        n_max = (32, 64, 96)[(i // 2) % 3]
        u = dense_step_matrix(params, phi, n_max)
        phases = np.abs(np.angle(np.linalg.eigvals(u)))
        for mode in dense_edge_eigenmodes(params, phi, n_max=n_max):
            v = mode.amplitudes
            assert np.isrealobj(v)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            sign, target = (1.0, 0.0) if mode.mode_class == "zero" else (-1.0, math.pi)
            assert np.linalg.norm(u @ v - sign * v) < EIGENPHASE_TOL
            same_class = phases[np.abs(phases - target) < EIGENPHASE_TOL]
            assert np.min(np.abs(same_class - mode.eigenphase)) < 1e-12, \
                f"params={params}, phi={phi.phi}, n_max={n_max}"


def mode_values(mode):
    """eigenphase, edge_weight, p0, p1, ratio10 and ratio21: the eigen CSV's floats."""
    p = mode.site_probabilities()
    return np.array([mode.eigenphase, mode.edge_weight, p[0], p[1], p[1] / p[0], p[2] / p[1]])


# A zero mode at the residual threshold: its vector has a residual below 1e-6
# under the lossy truncated step of ``floquet_step`` but 1.08e-6 under the dense
# step, whose oracle lists it at eigenphase 6.8e-7.
THRESHOLD_POINTS = {64: [BulkParams(-5.446506992567516, 1.19145701337737)]}


@pytest.mark.parametrize("n_max, draws, value_tol, phase_tol", [
    (32, 100, 1e-9, EIGENPHASE_TOL), (64, 100, 1e-9, EIGENPHASE_TOL), (256, 3, 1e-12, 1e-12)])
def test_closed_form_eigenmodes_match_the_dense_oracle(n_max, draws, value_tol, phase_tol):
    """Over seeded angles, each with both phi: every closed-form mode is one the
    dense oracle lists too, and has a dense residual below EIGENPHASE_TOL.  The
    oracle may list more at small n_max, near a gap closure, where the
    finite-size splitting it keeps (of order q^n_max) is largest; at n_max=256
    the sets are the same.  Where they agree, the values agree; at small n_max
    the eigenphases (each read from its own residual, both below the
    tolerance) only within EIGENPHASE_TOL."""
    rng = np.random.default_rng(2024 + n_max)
    points = [BulkParams(*rng.uniform(-2 * math.pi, 2 * math.pi, 2)) for _ in range(draws)]
    for params in points + THRESHOLD_POINTS.get(n_max, []):
        for phi in (PHI_ZERO, PHI_PI):
            closed = edge_eigenmodes(params, phi, n_max=n_max)
            dense = dense_edge_eigenmodes(params, phi, n_max=n_max)
            u = dense_step_matrix(params, phi, n_max)
            for mode in closed:
                sign = 1.0 if mode.mode_class == "zero" else -1.0
                assert np.linalg.norm(u @ mode.amplitudes - sign * mode.amplitudes) < EIGENPHASE_TOL
            got, want = [m.mode_class for m in closed], [m.mode_class for m in dense]
            where = f"params={params}, phi={phi.phi}"
            assert all(got.count(c) <= want.count(c) for c in got), where
            if n_max == 256:
                assert got == want, where
            if got != want:
                continue
            for mode, ref in zip(closed, dense):
                moved = np.abs(mode_values(mode) - mode_values(ref))
                assert moved[0] < phase_tol and moved[1:].max() < value_tol, where


def test_flat_band_corner_lists_the_boundary_mode_only():
    """At theta1 = theta2 = pi the bulk band is flat at E = pi, so the dense
    oracle's pi eigenspace holds the whole bulk; localizing it lists pi rows
    on site 0 or 1 (p0 down to ~1e-40), three beside the zero mode at phi = 0
    and four at phi = pi.  The closed form lists the zero mode on site 0 at
    phi = 0 and nothing at phi = pi (its pi channel has a = 0 there)."""
    params = BulkParams(math.pi, math.pi)
    closed = edge_eigenmodes(params, PHI_ZERO, n_max=64)
    dense = dense_edge_eigenmodes(params, PHI_ZERO, n_max=64)
    assert [m.mode_class for m in closed] == ["zero"]
    assert [m.mode_class for m in dense] == ["zero", "pi", "pi", "pi"]
    assert max(m.site_probabilities()[0] for m in dense[1:]) == pytest.approx(1.0)
    assert min(m.site_probabilities()[0] for m in dense[1:]) < 1e-30
    for mode in closed[0], dense[0]:
        assert (mode.edge_weight, mode.site_probabilities()[0]) == pytest.approx((1.0, 1.0), abs=1e-15)
        assert mode.eigenphase < 1e-15
    assert edge_eigenmodes(params, PHI_PI, n_max=64) == []
    assert [m.mode_class for m in dense_edge_eigenmodes(params, PHI_PI, n_max=64)] == ["pi"] * 4


def plateau_points():
    """(pi/2, 0, phi=0), then seeded points whose real and virtual gaps are
    >= 0.2, two where ``bound_state_channels`` predicts one mode and two
    where it predicts both."""
    rng, counts = np.random.default_rng(41), {1: 0, 2: 0}
    points = [(BulkParams(math.pi / 2, 0.0), PHI_ZERO)]
    while min(counts.values()) < 2:
        params = BulkParams(*rng.uniform(-2 * math.pi, 2 * math.pi, 2))
        phi = PHI_ZERO if rng.integers(2) == 0 else PHI_PI
        gaps = quasienergy_gaps(params)
        vgaps = quasienergy_gaps(virtual_bulk_params(params.theta1, phi))
        if min(gaps.delta0, gaps.delta_pi, vgaps.delta0, vgaps.delta_pi) < 0.2:
            continue
        listed = sum(int(b) for b in bound_state_channels(params, phi))
        if listed in counts and counts[listed] < 2:
            counts[listed] += 1
            points.append((params, phi))
    return points


@pytest.mark.parametrize("params, phi", plateau_points())
def test_edge_modes_give_the_formation_plateau(params, phi):
    """A chiral-frame walk from |0, down> keeps, per listed mode of profile
    ratio q = p1/p0, its overlap (1 - q)/2 with the start times its edge
    weight 1 - q^2; the zero and pi modes have orthogonal boundary spins, so
    their cross term leaves P_edge.  The sum is the mean P_edge over steps
    1000-1200."""
    modes = edge_eigenmodes(params, phi, n_max=256)
    zero, pi = bound_state_channels(params, phi)
    assert [m.mode_class for m in modes] == ["zero"] * int(zero) + ["pi"] * int(pi)
    ratios = [m.site_probabilities()[1] / m.site_probabilities()[0] for m in modes]
    plateau = sum((1 - q) * (1 - q * q) / 2 for q in ratios)
    if params == BulkParams(math.pi / 2, 0.0):
        assert plateau == pytest.approx(0.40202025355334, abs=1e-13)  # criterion 5a's truth
    table, _ = walk_table(params, phi, 1200, frame="chiral")
    assert abs(table[1000:, 0].mean() - plateau) < 1e-5


def test_no_module_diagonalizes_a_matrix():
    """The package has closed forms for what it computes: no module under
    ``src/`` calls a dense eigensolver (the dense edge oracle is test-side)."""
    solvers = {"eig", "eigh", "eigvals", "eigvalsh"}
    for path in Path(analysis.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
            assert not names & solvers, path.name


@pytest.mark.parametrize("tol", [0.0, 1.0])
def test_eigenmodes_reject_tolerance_outside_unit_interval(tol):
    with pytest.raises(ValueError):
        edge_eigenmodes(BulkParams(math.pi / 2, 0.0), PHI_ZERO, n_max=32, tol=tol)


def test_boundary_spin_of_eigenmodes_in_chiral_frame():
    # a zero mode carries |+> on the boundary site in the chiral frame,
    # a pi mode carries |->, independently of the coin angles
    cases = [(BulkParams(math.pi / 2, math.pi / 4), +1.0),
             (BulkParams(-math.pi / 2, math.pi / 4), -1.0)]
    for params, expected in cases:
        modes = edge_eigenmodes(params, PHI_ZERO, n_max=64)
        assert len(modes) == 1
        v = modes[0].amplitudes
        c, s = math.cos(params.theta1 / 4), math.sin(params.theta1 / 4)
        a, b = v[0], v[1]
        a, b = c * a - s * b, s * a + c * b
        sx = 2 * (a * np.conj(b)).real / (abs(a) ** 2 + abs(b) ** 2)
        assert sx == pytest.approx(expected, abs=1e-10)


def test_dynamics_matches_spectral_projection():
    # stabilized P_edge equals the squared overlap of the initial state with
    # the edge-mode span (times their edge weight), Parseval-style
    for params in (BulkParams(math.pi / 2, 0.0), BulkParams(3 * math.pi / 4, math.pi / 4)):
        state = relax(params, PHI_ZERO, 120)
        p_dyn = observable_record(120, state).p_edge
        modes = edge_eigenmodes(params, PHI_ZERO, n_max=96)
        init = to_vector(initial_state(96))
        # rotate |0,down> into the chiral frame used by the dynamics
        c, s = math.cos(params.theta1 / 4), math.sin(params.theta1 / 4)
        overlap = 0.0
        for m in modes:
            a, b = m.amplitudes[0::2], m.amplitudes[1::2]
            chiral = np.empty_like(m.amplitudes)
            chiral[0::2] = c * a - s * b
            chiral[1::2] = s * a + c * b
            overlap += abs(np.vdot(chiral, init)) ** 2
        assert p_dyn == pytest.approx(overlap, abs=0.02)


def test_stable_spin_law_single_and_double_channel():
    # one zero mode -> sx0 pins to +1; one pi mode -> -1
    state = relax(BulkParams(math.pi / 2, math.pi / 4), PHI_ZERO, 100)
    assert abs(observable_record(100, state).sx0 - 1.0) < 0.02
    state = relax(BulkParams(-math.pi / 2, math.pi / 4), PHI_ZERO, 100)
    assert abs(observable_record(100, state).sx0 + 1.0) < 0.02
    # both modes -> strictly inside (-1, 1), constant across even steps
    params = BulkParams(math.pi / 4, 3 * math.pi / 8)
    state = relax(params, PHI_ZERO, 100)
    sx_a = observable_record(100, state).sx0
    state = chiral_step(chiral_step(state, params, PHI_ZERO), params, PHI_ZERO)
    sx_b = observable_record(102, state).sx0
    assert -0.98 < sx_a < 0.98
    assert sx_a == pytest.approx(sx_b, abs=0.01)


def test_successive_ratios_of_stable_profile_are_geometric():
    # long time average scrubs the interference with the ballistic remnant
    params = BulkParams(math.pi / 2, 0.0)
    state = relax(params, PHI_ZERO, 200, n_max=260)
    acc = np.zeros(261)
    for _ in range(50):
        state = chiral_step(state, params, PHI_ZERO)
        acc += state.site_probabilities()
    profile = acc / 50.0
    ratios = successive_ratios(profile)[:3]
    even = profile[2] / profile[0]
    even_next = profile[4] / profile[2]
    assert abs(even - even_next) < 1e-3
    assert np.all(np.abs(ratios - GOLD_RATIO) < 1e-3)


def test_fit_localization_recovers_exact_geometric_profile():
    ratio = GOLD_RATIO
    profile = 0.3 * ratio ** np.arange(12)
    fit = fit_localization(profile)
    assert math.exp(-1.0 / fit.lam) == pytest.approx(ratio, abs=1e-10)
    assert fit.ratio_even == pytest.approx(ratio ** 2, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_localization_matches_eigen_oracle_profile():
    modes = edge_eigenmodes(BulkParams(math.pi / 2, 0.0), PHI_ZERO, n_max=64)
    fit = fit_localization(modes[0].site_probabilities())
    assert math.exp(-1.0 / fit.lam) == pytest.approx(GOLD_RATIO, abs=1e-8)


def test_fit_localization_rejects_thin_or_growing_input():
    with pytest.raises(InsufficientSupport):
        fit_localization(np.array([0.5, 0.25, 0.1, 1e-15, 1e-16, 1e-18]))
    with pytest.raises(InsufficientSupport):
        fit_localization(np.linspace(0.01, 0.2, 10))


def test_fit_quality_flags_unstabilized_profile():
    state = relax(BulkParams(math.pi / 2, 0.0), PHI_ZERO, 3, n_max=24)
    profile = state.site_probabilities()
    try:
        fit = fit_localization(profile)
    except InsufficientSupport:
        return
    assert fit.r_squared < 0.98


def test_detect_stabilization_basics():
    assert detect_stabilization([0.5] * 20) == 0
    assert detect_stabilization(np.linspace(0, 1, 40)) is None
    series = [1.0, 0.8, 0.6, 0.5] + [0.4] * 20
    assert detect_stabilization(series, window=10, tol=0.01) == 4
    # period-2 oscillation between two constants counts as stable
    osc = [0.4, 0.2] * 15
    assert detect_stabilization(osc, window=10, tol=0.01) == 0
    with pytest.raises(ValueError):
        detect_stabilization([1.0] * 8, window=3)


def detect_stabilization_loop(series, window=10, tol=0.01, start=0):
    """The window-by-window plateau scan, the oracle of the vectorised one."""
    values = np.asarray(list(series), dtype=float)
    for i in range(max(start, 0), values.size - window + 1):
        chunk = values[i:i + window]
        even, odd = chunk[0::2], chunk[1::2]
        if (even.max() - even.min() < tol) and (odd.max() - odd.min() < tol):
            return i
    return None


def test_detect_stabilization_matches_the_window_loop():
    rng = np.random.default_rng(11)
    found = set()
    for _ in range(3000):
        size = int(rng.integers(0, 60))
        # a decaying start, then a plateau whose noise may or may not pass tol
        series = np.exp(-np.arange(size) / rng.uniform(1, 10))
        series += rng.normal(scale=10.0 ** rng.uniform(-4, -1), size=size)
        if rng.random() < 0.3:  # period-2 oscillation
            series += rng.uniform(-0.3, 0.3) * (-1.0) ** np.arange(size)
        window = int(rng.integers(4, 13))
        start = int(rng.integers(-3, size + 3))
        tol = float(rng.choice([0.001, 0.01, 0.05]))
        got = detect_stabilization(series, window=window, tol=tol, start=start)
        assert got == detect_stabilization_loop(series, window=window, tol=tol, start=start)
        found.add(None if got is None else got > max(start, 0))
    assert found == {None, False, True}  # no plateau, one at start, one later


def test_detect_stabilization_on_trivial_phase_decay():
    state = initial_state(110)
    series = []
    params = BulkParams(math.pi / 2, -2 * math.pi / 3)
    for _ in range(100):
        state = chiral_step(state, params, PHI_ZERO)
        series.append(_edge_populations(state.site_probabilities()))
    # population is near zero after about ten steps; the detector fires once
    # a full flat window fits behind that
    assert series[12] < 0.05
    idx = detect_stabilization(series, window=10, tol=0.01)
    assert idx is not None and idx <= 25
    assert series[-1] < 0.01
