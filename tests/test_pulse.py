import math

import numpy as np
import pytest

from fockwalk.lattice import PHI_PI, PHI_ZERO, BulkParams, build_step_matrix
from fockwalk.pulse import (
    PulseConfig,
    StepTooCoarse,
    _passage_coefficients,
    _quaternion_product,
    _stirap_batch,
    adiabaticity_margin,
    aux_leakage,
    compile_six_step_cycle,
    spin_block,
    verify_cycle,
)

from oracle import full_cf4_passage, jc_subspace_hamiltonian, six_step_cycle, stirap_evolve

RNG = np.random.default_rng(99)
ADIABATIC = PulseConfig(omega0=1.0, delta0=1.0, tau=100.0, integrator_step=0.004)


def test_jc_hamiltonian_diagonal_limit():
    h = jc_subspace_hamiltonian(3, 0.0, 0.8)
    assert np.allclose(h, np.diag([-0.4, 0.4]))


def test_jc_hamiltonian_eigenvalues_closed_form():
    for n in (0, 1, 5):
        omega, delta = 0.7, 1.3
        h = jc_subspace_hamiltonian(n, omega, delta)
        gap = math.sqrt(delta**2 + (n + 1) * omega**2)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-gap / 2, gap / 2], atol=1e-14)


def test_jc_gap_never_closes_along_the_schedule():
    # eigenvalue curves over the sweep keep a finite avoided-crossing gap
    ts = np.linspace(0.0, ADIABATIC.tau, 401)
    for n in (0, 4):
        gaps = []
        for t in ts:
            omega = ADIABATIC.omega0 * math.sin(math.pi * t / ADIABATIC.tau)
            delta = ADIABATIC.delta0 * math.cos(math.pi * t / ADIABATIC.tau)
            ev = np.linalg.eigvalsh(jc_subspace_hamiltonian(n, omega, delta))
            gaps.append(ev[1] - ev[0])
        assert min(gaps) >= ADIABATIC.delta0 - 1e-12


def test_stirap_transfers_population_adiabatically():
    probs = [stirap_evolve(n, ADIABATIC)[1] for n in range(5)]
    assert min(probs) > 0.99


def test_stirap_phonon_homogeneity_in_the_deep_adiabatic_regime():
    slow = PulseConfig(omega0=1.0, delta0=1.0, tau=400.0, integrator_step=0.004)
    probs = [stirap_evolve(n, slow)[1] for n in range(11)]
    assert min(probs) > 0.999
    assert max(probs) - min(probs) < 1e-3


def test_stirap_fails_diabatically():
    fast = PulseConfig(omega0=1.0, delta0=1.0, tau=1.0, integrator_step=0.0005)
    _, p = stirap_evolve(0, fast)
    assert p < 0.5


def test_stirap_preserves_norm():
    psi, _ = stirap_evolve(2, ADIABATIC)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-9)


def test_stirap_step_guard():
    with pytest.raises(StepTooCoarse):
        stirap_evolve(0, PulseConfig(omega0=1.0, delta0=1.0, tau=10.0, integrator_step=0.5))


def test_integrator_fourth_order_convergence():
    # probe above the production step guard, where the discretization error
    # is visible over the roundoff floor
    from fockwalk.pulse import _stirap_batch

    reference = _stirap_batch([0], PulseConfig(1.0, 1.0, 10.0, 0.001))[0]
    errors = []
    for dt in (0.2, 0.1, 0.05):
        psi = _stirap_batch([0], PulseConfig(1.0, 1.0, 10.0, dt), enforce_step=False)[0]
        errors.append(np.linalg.norm(psi - reference))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.2)


def _rk4_passage(ns, config):
    """Classic fixed-step RK4 on the two-level Schrodinger equation, the
    integrator the CF4 propagator replaced, kept as its oracle."""
    steps = max(1, int(math.ceil(config.tau / config.integrator_step)))
    dt = config.tau / steps
    roots = np.sqrt(np.asarray(ns) + 1.0)

    def deriv(t, psi):
        omega = config.omega0 * math.sin(math.pi * t / config.tau)
        delta = config.delta0 * math.cos(math.pi * t / config.tau)
        g = roots * (omega / 2.0)
        out = np.empty_like(psi)
        out[:, 0] = -1j * (-delta / 2.0 * psi[:, 0] + g * psi[:, 1])
        out[:, 1] = -1j * (g * psi[:, 0] + delta / 2.0 * psi[:, 1])
        return out

    psi = np.zeros((len(roots), 2), dtype=complex)
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


@pytest.mark.parametrize("config", [ADIABATIC, PulseConfig(0.7, 1.3, 37.0, 0.003)])
def test_cf4_transfers_match_the_rk4_oracle(config):
    ns = np.arange(11)
    cf4 = np.abs(_stirap_batch(ns, config)[:, 1]) ** 2
    rk4 = np.abs(_rk4_passage(ns, config)[:, 1]) ** 2
    np.testing.assert_allclose(cf4, rk4, rtol=0, atol=1e-10)


def _sequential_cf4(n, config, steps):
    """CF4 as a plain time-ordered product of 2x2 complex matrices, each
    exponential taken from the eigendecomposition of the Hamiltonian."""
    dt = config.tau / steps
    nodes = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)
    alpha1, alpha2 = (3 - 2 * math.sqrt(3)) / 12, (3 + 2 * math.sqrt(3)) / 12

    def hamiltonian(t):
        x = math.pi * t / config.tau
        return jc_subspace_hamiltonian(n, config.omega0 * math.sin(x),
                                       config.delta0 * math.cos(x))

    def expm(m):
        values, vectors = np.linalg.eigh(m)
        return (vectors * np.exp(-1j * dt * values)) @ vectors.T

    psi = np.array([1.0, 0.0], dtype=complex)
    for k in range(steps):
        h1, h2 = (hamiltonian(k * dt + c * dt) for c in nodes)
        psi = expm(alpha1 * h1 + alpha2 * h2) @ (expm(alpha2 * h1 + alpha1 * h2) @ psi)
    return psi


@pytest.mark.parametrize("steps", [1, 2, 3, 1023, 1024, 1025, 2049])
def test_cf4_chunks_and_pairs_multiply_in_time_order(steps):
    # coarse steps make neighbouring factors far from commuting
    dt = 0.25
    config = PulseConfig(0.9, 1.4, steps * dt, dt)
    ns = [0, 3, 10]
    batch = _stirap_batch(ns, config, enforce_step=False)
    expected = np.array([_sequential_cf4(n, config, steps) for n in ns])
    np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12)


def test_passage_coefficients_mirror_about_the_middle_of_the_passage():
    """H(tau - t) = sigma_x H(t) sigma_x: a changes sign, b does not."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        omega0, delta0 = rng.uniform(0.05, 3.0, 2)
        tau, n = rng.uniform(1.0, 500.0), int(rng.integers(0, 40))
        t = rng.uniform(0.0, tau)
        a, b = _passage_coefficients(n, omega0 * math.sin(math.pi * t / tau),
                                     delta0 * math.cos(math.pi * t / tau))
        a_m, b_m = _passage_coefficients(n, omega0 * math.sin(math.pi * (tau - t) / tau),
                                         delta0 * math.cos(math.pi * (tau - t) / tau))
        assert a_m == pytest.approx(-a, rel=0, abs=1e-13)
        assert b_m == pytest.approx(b, rel=0, abs=1e-13)


@pytest.mark.parametrize("shape", [(4, 11), (4, 11, 1024), (4, 3, 0)])
def test_quaternion_product_is_the_stacked_expression_bit_for_bit(shape):
    """The in-place product sums each component's terms left to right, as
    the stacked expression does, so every bit is the same."""
    p, q = RNG.normal(size=(2, *shape))
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    want = np.stack((pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + qw * px + py * qz - pz * qy,
                     pw * qy + qw * py + pz * qx - px * qz,
                     pw * qz + qw * pz + px * qy - py * qx))
    got = _quaternion_product(p, q)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_mirrored_quaternion_is_sigma_x_transpose_sigma_x():
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))

    def su2(w, x, y, z):
        return w * np.eye(2) - 1j * (x * paulis[0] + y * paulis[1] + z * paulis[2])

    for q in RNG.normal(size=(10, 4)):
        w, x, y, z = q / np.linalg.norm(q)
        np.testing.assert_allclose(paulis[0] @ su2(w, x, y, z).T @ paulis[0],
                                   su2(w, x, y, -z), rtol=0, atol=1e-15)


# N = ceil(tau / dt) passage steps: 1, 2 and 3, and an odd and an even N near 25000
@pytest.mark.parametrize("steps", [1, 2, 3, 24391, 25000])
@pytest.mark.parametrize("omega0,delta0", [(1.0, 1.0), (0.7, 1.3)])
def test_mirrored_passage_matches_the_full_cf4_product(steps, omega0, delta0):
    config = PulseConfig(omega0, delta0, (steps - 0.5) * 0.004, 0.004)
    assert math.ceil(config.tau / config.integrator_step) == steps
    ns = np.arange(11)
    np.testing.assert_allclose(_stirap_batch(ns, config), full_cf4_passage(ns, config),
                               rtol=0, atol=1e-13)


def test_cf4_passage_is_unitary():
    slow = PulseConfig(omega0=1.0, delta0=1.0, tau=400.0, integrator_step=0.004)
    norms = np.linalg.norm(_stirap_batch(np.arange(11), slow), axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-11)


def test_adiabaticity_margin_value_and_scaling():
    margin = adiabaticity_margin(ADIABATIC)
    assert margin < 0.05
    doubled = adiabaticity_margin(PulseConfig(1.0, 1.0, 200.0, 0.004))
    assert doubled == pytest.approx(margin / 2, rel=0.05)


def _sampled_margin(config, n_grid):
    """The grid estimator the closed form replaced, kept as its oracle."""
    ts = np.linspace(0.0, config.tau, n_grid)
    omega = config.omega0 * np.sin(np.pi * ts / config.tau)
    delta = config.delta0 * np.cos(np.pi * ts / config.tau)
    theta = np.unwrap(np.arctan2(omega, delta))
    return float(np.max(np.abs(np.gradient(theta, ts)) / np.hypot(omega, delta)))


def test_adiabaticity_margin_is_pi_over_tau_at_equal_amplitudes():
    for amplitude, tau in ((1.0, 100.0), (1.0, 7.0), (0.3, 7.0), (2.5, 400.0)):
        config = PulseConfig(amplitude, amplitude, tau, 0.004)
        expected = math.pi / (tau * amplitude)
        assert adiabaticity_margin(config) == pytest.approx(expected, rel=1e-15, abs=0)


def test_adiabaticity_margin_matches_the_sampled_estimator():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        omega0, delta0 = rng.uniform(0.05, 3.0, 2)
        config = PulseConfig(omega0, delta0, rng.uniform(1.0, 500.0), 0.004)
        assert adiabaticity_margin(config) == pytest.approx(
            _sampled_margin(config, 200_001), rel=1e-6, abs=0)


def test_adiabaticity_margin_flags_vanishing_detuning():
    degenerate = PulseConfig(omega0=1.0, delta0=1e-14, tau=50.0, integrator_step=0.004)
    assert math.isinf(adiabaticity_margin(degenerate))


def test_compiled_cycle_equals_walk_matrix_up_to_global_phase():
    n_max = 9
    for _ in range(20):
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        phi = PHI_ZERO if RNG.integers(2) == 0 else PHI_PI
        cycle = compile_six_step_cycle(params, phi, n_max)
        dim = cycle.shape[0]
        assert np.max(np.abs(cycle.conj().T @ cycle - np.eye(dim))) < 1e-12
        assert aux_leakage(cycle) < 1e-12
        block = spin_block(cycle)
        target = build_step_matrix(params, phi, n_max)
        anchor = np.unravel_index(np.argmax(np.abs(target)), target.shape)
        phase = block[anchor] / target[anchor]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(block - phase * target)) < 1e-12


def test_compiled_cycle_is_real_and_equals_the_walk_matrix_exactly():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = BulkParams(*rng.uniform(-2 * math.pi, 2 * math.pi, 2))
        for phi in (PHI_ZERO, PHI_PI):
            cycle = compile_six_step_cycle(params, phi, 7)
            assert cycle.dtype == np.float64
            assert np.array_equal(spin_block(cycle), build_step_matrix(params, phi, 7))


def equal_with_zero_signs(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n_max", [2, 3, 7, 12, 64])
def test_compiled_cycle_matches_the_six_step_oracle(n_max):
    """The pair-rotation cycle is the phonon-by-phonon product bit for bit,
    signs of zeros and the auxiliary rows and columns included, and its spin
    block and leakage are the index views of the (up, down) and aux states."""
    rng = np.random.default_rng(3000 + n_max)
    edges = (0.0, math.pi, -math.pi, 2 * math.pi, 4 * math.pi)
    angles = [*rng.uniform(-2 * math.pi, 2 * math.pi, (8, 2)),
              *((a, b) for a in edges for b in edges)]
    sites = np.arange(3 * (n_max + 1)).reshape(-1, 3)
    physical, aux = sites[:, :2].ravel(), sites[:, 2]
    for params in (BulkParams(theta1, theta2) for theta1, theta2 in angles):
        for phi in (PHI_ZERO, PHI_PI):
            cycle = compile_six_step_cycle(params, phi, n_max)
            assert equal_with_zero_signs(cycle, six_step_cycle(params, phi, n_max))
            assert equal_with_zero_signs(spin_block(cycle), cycle[np.ix_(physical, physical)])
            assert aux_leakage(cycle) == np.max(np.abs(cycle[np.ix_(aux, physical)]))


def test_compiled_cycle_trivial_angles():
    cycle = compile_six_step_cycle(BulkParams(0.0, 0.0), PHI_ZERO, 4)
    state = np.zeros(15, dtype=complex)
    state[1] = 1.0  # |0, down>
    out = cycle @ state
    expected = np.zeros(15, dtype=complex)
    expected[0] = 1.0  # |0, up>
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_aux_level_empty_after_full_cycle_on_physical_states():
    params = BulkParams(1.3, -0.7)
    cycle = compile_six_step_cycle(params, PHI_PI, 10)
    vec = RNG.normal(size=2 * 11) + 1j * RNG.normal(size=2 * 11)
    vec[-4:] = 0.0  # keep the guard band empty
    vec /= np.linalg.norm(vec)
    amps = np.zeros(3 * 11, dtype=complex)  # index 3n + level, aux empty
    amps[0::3] = vec[0::2]
    amps[1::3] = vec[1::2]
    out = cycle @ amps
    assert float(np.sum(np.abs(out[2::3]) ** 2)) < 1e-10
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


def test_phase_insert_controls_the_boundary_phase():
    params = BulkParams(0.9, 0.4)
    c0 = spin_block(compile_six_step_cycle(params, PHI_ZERO, 6))
    cpi = spin_block(compile_six_step_cycle(params, PHI_PI, 6))
    # the cycles differ by twice the boundary term |0><0| x |up><dn| R(theta1)
    expected = np.zeros_like(c0)
    c1, s1 = math.cos(params.theta1 / 2), math.sin(params.theta1 / 2)
    expected[0, 0] = 2 * s1   # <dn|R|up>
    expected[0, 1] = 2 * c1   # <dn|R|dn>
    np.testing.assert_allclose(c0 - cpi, expected, atol=1e-14)


def test_verify_cycle_report():
    report = verify_cycle(BulkParams(math.pi / 2, math.pi / 4), PHI_ZERO, 8,
                          ADIABATIC, n_levels=5)
    assert report.step_deviation < 1e-12
    assert report.leakage < 1e-12
    assert report.unitarity_error < 1e-12
    assert report.min_transfer > 0.99
    assert report.fidelity_bound > 0.98
    assert report.adiabatic


def test_verify_cycle_flags_non_adiabatic_schedule():
    fast = PulseConfig(omega0=1.0, delta0=1.0, tau=1.0, integrator_step=0.0005)
    report = verify_cycle(BulkParams(1.0, 1.0), PHI_ZERO, 6, fast, n_levels=3)
    assert not report.adiabatic
    assert report.fidelity_bound < 0.9
