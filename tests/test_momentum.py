import itertools
import math

import numpy as np
import pytest

from fockwalk import momentum
from fockwalk.lattice import PHI_PI, PHI_ZERO, BulkParams
from fockwalk.momentum import (
    GapClosed,
    TimeFrame,
    bulk_unitary_k,
    dispersion_cos_e,
    dispersion_energy,
    phase_diagram,
    predict_bound_states,
    quasienergy_gaps,
    time_frame_unitary_k,
    virtual_bulk_params,
    winding_number,
    z2_invariants,
)

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
    increments = (increments + math.pi) % (2.0 * math.pi) - math.pi
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
    chunks = np.array_split(rows, max(1, len(rows) // 16))  # small rows: fast in cache
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
    for grid in (32, 64):
        values = [lo + (hi - lo) * (i + 0.5) / grid for i in range(grid)]
        points += [BulkParams(t1, t2) for t1, t2 in itertools.product(values, values)]
    min_sin_gap = np.array([min(math.sin(g.delta0), math.sin(g.delta_pi))
                            for g in map(quasienergy_gaps, points)])
    for n_k in (8, 64, 1024, 2048):
        expected = sampled_frame_windings(points, min_sin_gap, n_k)
        for params, want in zip(points, expected):
            try:
                label = z2_invariants(params, n_k)
                got = (label.nu_prime, label.nu_dprime)
            except GapClosed:
                got = None
            assert got == want, (params, n_k)
        assert 0 < expected.count(None) < len(points)


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
    points = phase_diagram(values, values, n_k=512)
    labels = {(p.label.nu0, p.label.nu_pi) for p in points if p.status == "ok"}
    assert labels == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # points on the theta1 = theta2 diagonal close the pi gap
    diagonal = [p for p in points if p.theta1 == p.theta2]
    assert diagonal and all(p.status == "transition" for p in diagonal)


def test_each_point_computes_its_gaps_once(monkeypatch):
    calls = []

    def counted(params):
        calls.append(params)
        return quasienergy_gaps(params)

    monkeypatch.setattr(momentum, "quasienergy_gaps", counted)
    values = [(2 * m + 1) * math.pi / 8 for m in range(-8, 8)]
    points = phase_diagram(values, values, n_k=512)
    assert {p.status for p in points} == {"ok", "transition"}
    assert len(calls) == len(points) == 256
    calls.clear()
    predict_bound_states(BulkParams(math.pi / 2, 0.0), PHI_ZERO)
    assert len(calls) == 2  # the real and the virtual bulk


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
