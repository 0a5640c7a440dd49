import itertools
import math

import numpy as np
import pytest

from fockwalk import momentum
from fockwalk.lattice import PHI_PI, PHI_ZERO, BulkParams
from fockwalk.momentum import (
    GapClosed,
    TimeFrame,
    bound_state_channels,
    dispersion_cos_e,
    dispersion_energy,
    phase_diagram,
    predict_bound_states,
    quasienergy_gaps,
    virtual_bulk_params,
    winding_number,
    z2_invariants,
)

from oracle import bulk_unitary_k, time_frame_unitary_k

RNG = np.random.default_rng(11)


def eigenphases(u):
    return np.sort(np.angle(np.linalg.eigvals(u)))


def test_bulk_unitary_identity_at_zero_angles():
    u = bulk_unitary_k(BulkParams(0.0, 0.0), 0.0)
    assert np.max(np.abs(u - np.eye(2))) < 1e-15


def test_bulk_unitary_matches_dispersion_formula():
    ks = np.linspace(-math.pi, math.pi, 1024, endpoint=False)
    for _ in range(20):
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        cos_e = dispersion_cos_e(params, ks)
        for k, ce in zip(ks[::64], cos_e[::64]):
            u = bulk_unitary_k(params, float(k))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            phases = eigenphases(u)
            assert math.cos(phases[1]) == pytest.approx(ce, abs=1e-10)
            assert phases[0] == pytest.approx(-phases[1], abs=1e-10)


def test_anchor_eigenphases_pi_quarter():
    u = bulk_unitary_k(BulkParams(math.pi / 2, 0.0), 0.0)
    phases = eigenphases(u)
    assert phases[1] == pytest.approx(math.pi / 4, abs=1e-12)


def test_frames_share_eigenphases_with_bare_step():
    for _ in range(64):
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        k = float(RNG.uniform(-math.pi, math.pi))
        base = eigenphases(bulk_unitary_k(params, k))
        for frame in TimeFrame:
            other = eigenphases(time_frame_unitary_k(params, frame, k))
            assert np.max(np.abs(base - other)) < 1e-10


def test_frame_unitaries_at_zero_coins_are_pure_shifts():
    k = 0.77
    u1 = time_frame_unitary_k(BulkParams(0.0, 0.0), TimeFrame.F1, k)
    np.testing.assert_allclose(u1, np.diag([np.exp(-1j * k), np.exp(1j * k)]), atol=1e-15)


PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def bloch_decomposition(u):
    """(cos E, sin E n) of a 2x2 U = cos E - i sin E (n . sigma)."""
    cos_e = u.trace().real / 2
    sin_e_n = np.array([-u[0, 1].imag, -u[0, 1].real, -u[0, 0].imag])
    rebuilt = cos_e * np.eye(2) - 1j * sum(c * p for c, p in zip(sin_e_n, PAULI))
    assert np.max(np.abs(u - rebuilt)) < 1e-12
    return cos_e, sin_e_n


def test_bulk_unitary_bloch_vector_has_unit_norm_and_dispersion_energy():
    for _ in range(50):
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        k = float(RNG.uniform(-math.pi, math.pi))
        cos_e, sin_e_n = bloch_decomposition(bulk_unitary_k(params, k))
        assert cos_e == pytest.approx(float(dispersion_cos_e(params, k)), abs=1e-10)
        sin_e = math.sin(float(dispersion_energy(params, k)))
        if sin_e < 1e-8:
            continue  # gap closure: the direction n is undefined
        assert np.linalg.norm(sin_e_n / sin_e) == pytest.approx(1.0, abs=1e-10)


def test_bulk_unitary_bloch_vector_examples():
    params = BulkParams(math.pi / 2, 0.0)
    # cos k = 0 kills the only term of the dispersion at (pi/2, 0)
    assert float(dispersion_energy(params, math.pi / 2)) == pytest.approx(math.pi / 2, abs=1e-12)
    # k = 0 at (pi/2, 0): Bloch vector points along +y
    _, sin_e_n = bloch_decomposition(bulk_unitary_k(params, 0.0))
    n_vec = sin_e_n / math.sin(float(dispersion_energy(params, 0.0)))
    assert n_vec[0] == pytest.approx(0.0, abs=1e-12)
    assert n_vec[1] == pytest.approx(1.0, abs=1e-10)
    # equal angles close the gap at k = pi: sin E = 0, U = cos E
    _, sin_e_n = bloch_decomposition(bulk_unitary_k(BulkParams(0.9, 0.9), math.pi))
    assert np.linalg.norm(sin_e_n) < 1e-8


def test_winding_anchor_values():
    params = BulkParams(math.pi / 2, 0.0)
    assert winding_number(params, TimeFrame.F1) == 1
    assert winding_number(params, TimeFrame.F2) == 0


# The sampled winding count that `winding_number` replaced by its closed
# form, kept as the reference the closed form must reproduce.

def _frame_bloch_curve(theta1, theta2, frame, ks):
    """In-plane components (y, z) of sin E(k) n(k) in a chiral frame.

    Closed form of (-Re U01, -Im U00) of `time_frame_unitary_k`; the x
    component -Im U01 vanishes identically, so x is the chiral axis.  The
    curve moves at speed <= 1 in k and keeps distance sin E(k) from 0.
    The angles may be arrays that broadcast against ks.
    """
    c1, s1 = np.cos(theta1 / 2.0), np.sin(theta1 / 2.0)
    c2, s2 = np.cos(theta2 / 2.0), np.sin(theta2 / 2.0)
    if frame is TimeFrame.F1:
        return s1 * c2 * np.cos(ks) + c1 * s2, c2 * np.sin(ks)
    return s1 * c2 + c1 * s2 * np.cos(ks), c1 * np.sin(ks)


def sampled_windings(theta1, theta2, frame, n_k):
    """Full turns of atan2(z, y) along the frame curve on a uniform n_k grid.

    One count per entry of the angle arrays; each must lie within 1e-3 of
    an integer.
    """
    ks = np.linspace(-math.pi, math.pi, n_k, endpoint=False)
    y, z = _frame_bloch_curve(theta1[:, None], theta2[:, None], frame, ks)
    angles = np.arctan2(z, y)
    increments = np.diff(angles, axis=1, append=angles[:, :1])
    increments -= 2.0 * math.pi * np.round(increments / (2.0 * math.pi))  # into [-pi, pi]
    total = np.sum(increments, axis=1) / (2.0 * math.pi)
    nearest = np.round(total)
    assert np.max(np.abs(total - nearest), initial=0.0) <= 1e-3
    return nearest.astype(int)


def sampled_frame_windings(points, min_sin_gap, n_k):
    """(nu', nu'') of each point from the sampled count, or None where
    min(sin delta0, sin delta_pi) <= 2 pi / n_k leaves the count unresolved."""
    rows = np.flatnonzero(min_sin_gap > 2.0 * math.pi / n_k)
    theta1 = np.array([p.theta1 for p in points])
    theta2 = np.array([p.theta2 for p in points])
    # chunks of ~2^14 samples: each temporary stays in cache
    chunks = np.array_split(rows, max(1, len(rows) * n_k // 2**14))
    counts = [np.concatenate([sampled_windings(theta1[c], theta2[c], frame, n_k)
                              for c in chunks]) for frame in TimeFrame]
    result = [None] * len(points)
    for row, nu_p, nu_dp in zip(rows, *counts):
        result[row] = (int(nu_p), int(nu_dp))
    return result


def test_frame_bloch_curve_matches_frame_unitaries_and_axis_is_x():
    # U = cos E - i sin E (n . sigma): sin E n = (-Im U01, -Re U01, -Im U00)
    rng = np.random.default_rng(17)
    for t1, t2, k in rng.uniform(-2 * math.pi, 2 * math.pi, size=(200, 3)):
        params = BulkParams(float(t1), float(t2))
        for frame in TimeFrame:
            u = time_frame_unitary_k(params, frame, float(k))
            y, z = _frame_bloch_curve(params.theta1, params.theta2, frame, np.array([k]))
            assert abs(u[0, 1].imag) < 1e-12
            assert abs(y[0] + u[0, 1].real) < 1e-12
            assert abs(z[0] + u[0, 0].imag) < 1e-12


def analytic_windings(params):
    c1, s1 = math.cos(params.theta1 / 2), math.sin(params.theta1 / 2)
    c2, s2 = math.cos(params.theta2 / 2), math.sin(params.theta2 / 2)
    a, b = abs(s1 * c2), abs(c1 * s2)
    return (int(np.sign(s1)) * int(a > b), int(np.sign(s2)) * int(b > a))


def test_winding_matches_analytic_rule_or_raises_when_unresolved():
    rng = np.random.default_rng(23)
    resolved = unresolved = 0
    for t1, t2 in rng.uniform(-2 * math.pi, 2 * math.pi, size=(300, 2)):
        params = BulkParams(float(t1), float(t2))
        gaps = quasienergy_gaps(params)
        if min(gaps.delta0, gaps.delta_pi) < 1e-3:
            continue
        expected = analytic_windings(params)
        for n_k in (8, 64, 2048):
            got = []
            for frame in TimeFrame:
                if min(math.sin(gaps.delta0), math.sin(gaps.delta_pi)) > 2 * math.pi / n_k:
                    got.append(winding_number(params, frame, n_k))
                else:
                    with pytest.raises(GapClosed, match="n_k"):
                        winding_number(params, frame, n_k)
            if got:
                assert tuple(got) == expected
                resolved += 1
            else:
                unresolved += 1
    assert resolved > 100 and unresolved > 100


def test_closed_form_windings_match_the_sampled_count():
    # seeded points, the virtual bulks (theta1, -+pi) that predict_bound_states
    # labels (a one-parameter family, so 2000 theta1 values), and the
    # phase-diagram CLI grids 32 and 64 over [-2pi, 2pi]
    rng = np.random.default_rng(29)
    pairs = rng.uniform(-2 * math.pi, 2 * math.pi, size=(10_000, 2))
    points = [BulkParams(float(t1), float(t2)) for t1, t2 in pairs]
    points += [virtual_bulk_params(float(t1), phi)
               for t1 in pairs[:2000, 0] for phi in (PHI_ZERO, PHI_PI)]
    lo, hi = -2 * math.pi, 2 * math.pi
    first_grid_point = len(points)
    for grid in (32, 64):
        values = [lo + (hi - lo) * (i + 0.5) / grid for i in range(grid)]
        points += [BulkParams(t1, t2) for t1, t2 in itertools.product(values, values)]
    every = BulkParams(np.array([p.theta1 for p in points]), np.array([p.theta2 for p in points]))
    gaps = quasienergy_gaps(every)
    min_sin_gap = np.minimum(np.sin(gaps.delta0), np.sin(gaps.delta_pi))
    # the scalar view on every grid point and the first 1000 seeded points,
    # each point at one of the four n_k
    viewed = list(range(1000)) + list(range(first_grid_point, len(points)))
    for j, n_k in enumerate((8, 64, 1024, 2048)):
        expected = sampled_frame_windings(points, min_sin_gap, n_k)
        label, _, resolved = momentum._labels(every, n_k)
        got = [(int(p), int(dp)) if ok else None
               for p, dp, ok in zip(label.nu_prime, label.nu_dprime, resolved)]
        assert got == expected, n_k
        assert 0 < expected.count(None) < len(points)
        for i in viewed[j::4]:
            try:
                view = z2_invariants(points[i], n_k)
                view = (view.nu_prime, view.nu_dprime)
            except GapClosed:
                view = None
            assert view == expected[i], (points[i], n_k)


def test_winding_rejects_empty_grid():
    for n_k in (0, -4):
        with pytest.raises(ValueError):
            winding_number(BulkParams(math.pi / 2, 0.0), TimeFrame.F1, n_k)


def test_winding_stable_under_grid_refinement():
    count = 0
    while count < 20:
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        gaps = quasienergy_gaps(params)
        if min(gaps.delta0, gaps.delta_pi) < 0.1:
            continue
        count += 1
        for frame in TimeFrame:
            coarse = winding_number(params, frame, n_k=512)
            fine = winding_number(params, frame, n_k=4096)
            assert coarse == fine


def test_winding_raises_on_closed_gap():
    with pytest.raises(GapClosed):
        winding_number(BulkParams(0.9, 0.9), TimeFrame.F1)


def test_z2_anchor_labels():
    assert (lambda l: (l.nu0, l.nu_pi))(z2_invariants(BulkParams(math.pi / 2, 0.0))) == (1, 0)
    assert (lambda l: (l.nu0, l.nu_pi))(z2_invariants(BulkParams(math.pi / 2, math.pi))) == (1, 1)
    assert (lambda l: (l.nu0, l.nu_pi))(z2_invariants(BulkParams(math.pi / 2, -2 * math.pi / 3))) == (0, 0)


def test_z2_labels_lie_in_z2():
    count = 0
    while count < 25:
        params = BulkParams(*RNG.uniform(-2 * math.pi, 2 * math.pi, 2))
        gaps = quasienergy_gaps(params)
        if min(gaps.delta0, gaps.delta_pi) < 0.1:
            continue
        count += 1
        label = z2_invariants(params)
        assert label.nu0 in (0, 1) and label.nu_pi in (0, 1)


def test_virtual_bulk_parameters():
    assert virtual_bulk_params(3 * math.pi / 4, PHI_ZERO) == BulkParams(3 * math.pi / 4, -math.pi)
    assert virtual_bulk_params(0.4, PHI_PI) == BulkParams(0.4, math.pi)
    # the virtual bulk of phi=0 sits in the trivial phase for |theta1| < pi
    label = z2_invariants(virtual_bulk_params(0.7, PHI_ZERO))
    assert (label.nu0, label.nu_pi) == (0, 0)


def test_predict_bound_states_examples():
    assert predict_bound_states(BulkParams(math.pi / 2, 0.0), PHI_ZERO) == (1, 0)
    assert predict_bound_states(BulkParams(math.pi / 2, -2 * math.pi / 3), PHI_ZERO) == (0, 0)
    # real bulk equal to the virtual bulk: XOR wipes every channel
    assert predict_bound_states(BulkParams(0.9, -math.pi), PHI_ZERO) == (0, 0)


def test_quasienergy_gap_examples():
    report = quasienergy_gaps(BulkParams(math.pi / 2, 0.0))
    assert report.delta0 == pytest.approx(math.pi / 4, abs=1e-8)
    assert report.delta_pi == pytest.approx(math.pi / 4, abs=1e-8)
    assert quasienergy_gaps(BulkParams(1.1, 1.1)).delta_pi == pytest.approx(0.0, abs=1e-8)
    assert quasienergy_gaps(BulkParams(1.1, -1.1)).delta0 == pytest.approx(0.0, abs=1e-8)


def test_quasienergy_gaps_match_dense_band_scan():
    # grid offset by half a step, so it never hits the edges k = 0, pi;
    # |dE/dk| <= 1 bounds how far its extremes can sit inside the band
    n_k = 4096
    step = 2.0 * math.pi / n_k
    ks = -math.pi + (np.arange(n_k) + 0.5) * step
    rng = np.random.default_rng(5)
    for t1, t2 in rng.uniform(-2 * math.pi, 2 * math.pi, size=(200, 2)):
        params = BulkParams(float(t1), float(t2))
        gaps = quasienergy_gaps(params)
        energies = dispersion_energy(params, ks)
        scan0 = float(energies.min())
        scan_pi = math.pi - float(energies.max())
        assert gaps.delta0 - 1e-15 <= scan0 <= gaps.delta0 + step
        assert gaps.delta_pi - 1e-15 <= scan_pi <= gaps.delta_pi + step


def test_phase_diagram_has_all_four_labels_and_transitions():
    values = [(2 * m + 1) * math.pi / 8 for m in range(-8, 8)]
    params, gaps, label, transition = phase_diagram(values, values, n_k=512)
    ok = ~transition
    assert set(zip(label.nu0[ok].tolist(), label.nu_pi[ok].tolist())) == \
        {(0, 0), (0, 1), (1, 0), (1, 1)}
    # row-major order, theta1 outer; points on the theta1 = theta2 diagonal
    # close the pi gap
    assert params.theta1.tolist() == [t1 for t1 in values for _ in values]
    assert params.theta2.tolist() == values * len(values)
    assert np.array_equal(transition, np.minimum(gaps.delta0, gaps.delta_pi) < 1e-2)
    diagonal = params.theta1 == params.theta2
    assert diagonal.any() and transition[diagonal].all()


def test_each_point_computes_its_gaps_once(monkeypatch):
    calls = []

    def counted(params):
        calls.append(params)
        return quasienergy_gaps(params)

    monkeypatch.setattr(momentum, "quasienergy_gaps", counted)
    values = [(2 * m + 1) * math.pi / 8 for m in range(-8, 8)]
    _, gaps, _, transition = phase_diagram(values, values, n_k=512)
    assert set(transition.tolist()) == {False, True}
    assert len(calls) == 1  # one call covers the whole grid
    assert np.shape(calls[0].theta1) == np.shape(gaps.delta0) == (256,)
    calls.clear()
    predict_bound_states(BulkParams(math.pi / 2, 0.0), PHI_ZERO)
    assert len(calls) == 2  # the real and the virtual bulk


def test_bound_state_channels_match_the_scalar_prediction():
    # seeded points and the diagonal closures of a pi/8 grid, where the
    # scalar view raises GapClosed and the arrays hold -1
    rng = np.random.default_rng(31)
    values = [(2 * m + 1) * math.pi / 8 for m in range(-8, 8)]
    pairs = np.concatenate([rng.uniform(-2 * math.pi, 2 * math.pi, size=(600, 2)),
                            list(itertools.product(values, values))])
    real = BulkParams(pairs[:, 0], pairs[:, 1])
    for phi, n_k in ((PHI_ZERO, 64), (PHI_PI, 2048), (PHI_ZERO, 2048)):
        expected = []
        for t1, t2 in pairs.tolist():
            try:
                expected.append(predict_bound_states(BulkParams(t1, t2), phi, n_k))
            except GapClosed:
                expected.append((-1, -1))
        got = list(zip(*(b.tolist() for b in bound_state_channels(real, phi, n_k))))
        assert got == expected
        assert (-1, -1) in got and {(0, 0), (1, 0)} <= set(got)


def test_numpy_trig_is_bit_equal_to_math():
    # The array code reproduces the scalar code's bytes only because this
    # numpy build evaluates cos and sin like libm and arccos independently
    # of the array length; another build fails here first.
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        build = (f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, "
                 f"SIMD {config['SIMD Extensions']['found']}")
    except TypeError:  # numpy < 1.26 only prints its configuration
        build = f"numpy {np.__version__}"
    rng = np.random.default_rng(37)
    x = rng.uniform(-8 * math.pi, 8 * math.pi, 20_000)
    for ufunc, scalar in ((np.cos, math.cos), (np.sin, math.sin)):
        assert np.array_equal(ufunc(x), [scalar(v) for v in x.tolist()]), \
            f"{ufunc.__name__} differs from math on {build}"
    c = rng.uniform(-1.0, 1.0, 20_000)
    pieces = np.concatenate([np.arccos(c[i:i + 2]) for i in range(0, c.size, 2)])
    assert np.array_equal(np.arccos(c), pieces), f"arccos depends on the array length on {build}"


def test_phase_diagram_sign_flip_complements_labels():
    # empirical symmetry of the diagram: negating both angles complements
    # both labels ((0,0) <-> (1,1), (1,0) <-> (0,1)); it is not
    # label-preserving
    values = [(2 * m + 1) * math.pi / 8 for m in range(-4, 4)]
    for t1 in values:
        for t2 in values:
            gaps = quasienergy_gaps(BulkParams(t1, t2))
            if min(gaps.delta0, gaps.delta_pi) < 0.05:
                continue
            a = z2_invariants(BulkParams(t1, t2))
            b = z2_invariants(BulkParams(-t1, -t2))
            assert (a.nu0, a.nu_pi) == (1 - b.nu0, 1 - b.nu_pi)
