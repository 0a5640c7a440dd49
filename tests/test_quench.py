import dataclasses
import math

import numpy as np
import pytest

from fockwalk import lattice, quench
from fockwalk.lattice import PHI_PI, PHI_ZERO, BulkParams, SiteOutOfRange
from fockwalk.momentum import predict_bound_states
from fockwalk.quench import (
    InsufficientLoss,
    QuenchProtocol,
    QuenchScenario,
    landau_zener_fit,
    quench_table,
    ramp_survival_curve,
    run_quench,
    scenario,
    stabilized_edge_population,
    survival_catalog,
)

from oracle import assert_close_to_chiral_steps

PI = math.pi


def protocol(nq=4):
    return QuenchProtocol(initial=BulkParams(3 * PI / 4, PI / 4),
                          final=BulkParams(PI / 8, PI / 4),
                          n0=20, nq=nq, total_steps=120)


def schedule_of(p):
    """``_schedule`` of one protocol: its (total_steps, 2) angles, signs and kick."""
    angles, signs, kick = quench._schedule(p, p.n0, [p.nq], p.total_steps)
    return angles[..., 0], signs, kick


def test_schedule_holds_initial_parameters_before_the_quench():
    p = protocol()
    angles, signs, _ = schedule_of(p)
    for t in (1, 10, 20):  # row t - 1 holds step t
        assert BulkParams(*angles[t - 1]) == p.initial
        assert signs[t - 1] == p.phi_initial.sign


def test_schedule_sudden_jump_for_single_step_ramp():
    p = protocol(nq=1)
    angles, _, _ = schedule_of(p)
    assert BulkParams(*angles[21 - 1]) == p.final


def test_schedule_midpoint_is_arithmetic_mean():
    p = protocol(nq=4)
    angles, _, _ = schedule_of(p)
    assert angles[22 - 1, 0] == pytest.approx((p.initial.theta1 + p.final.theta1) / 2)
    assert angles[22 - 1, 1] == pytest.approx((p.initial.theta2 + p.final.theta2) / 2)
    assert BulkParams(*angles[24 - 1]) == p.final


def test_schedule_switches_phi_right_after_n0():
    p = QuenchProtocol(initial=BulkParams(3 * PI / 4, PI / 4),
                       final=BulkParams(3 * PI / 4, PI / 4),
                       phi_initial=PHI_ZERO, phi_final=PHI_PI,
                       n0=20, nq=1, total_steps=40)
    _, signs, _ = schedule_of(p)
    assert signs[20 - 1] == PHI_ZERO.sign
    assert signs[21 - 1] == PHI_PI.sign


def closed_form_schedule(ends, n0, nq, steps):
    """Step t's angles theta_i + (theta_f - theta_i) * min(max(t - n0, 0), nq) / nq,
    one float at a time, kept as the oracle of ``_schedule``."""
    rows = []
    for t in range(1, steps + 1):
        frac = min(max(t - n0, 0), nq) / nq
        rows.append([ends.initial.theta1 + (ends.final.theta1 - ends.initial.theta1) * frac,
                     ends.initial.theta2 + (ends.final.theta2 - ends.initial.theta2) * frac])
    return np.array(rows)


KICKED = QuenchProtocol(initial=BulkParams(0.3, -1.1), final=BulkParams(-2.9, 0.7),
                        phi_initial=PHI_PI, phi_final=PHI_ZERO,
                        n0=7, nq=13, total_steps=45, kick=5)


def test_schedule_matches_the_closed_form_at_every_step():
    cases = [(sc, 20, [nq], 20 + nq + 80) for sc in survival_catalog() for nq in (1, 10)]
    cases.append((KICKED, KICKED.n0, [KICKED.nq], KICKED.total_steps))
    cases.append((scenario("fig6d-kick"), 9, [1, 2, 3, 5, 8, 13, 21, 34], 55))  # a ramp sweep
    for ends, n0, durations, steps in cases:
        angles, signs, kick = quench._schedule(ends, n0, durations, steps)
        assert angles.shape == (steps, 2, len(durations))
        for column, nq in enumerate(durations):  # the same bits as the closed form
            want = closed_form_schedule(ends, n0, nq, steps)
            assert angles[..., column].tobytes() == want.tobytes()
        assert signs == [(ends.phi_initial if t <= n0 else ends.phi_final).sign
                         for t in range(1, steps + 1)]
        assert kick == (None if ends.kick is None else (n0, ends.kick))


def test_protocol_validation():
    with pytest.raises(ValueError):
        QuenchProtocol(initial=BulkParams(1, 1), final=BulkParams(1, 1),
                       n0=0, nq=1, total_steps=10)
    with pytest.raises(ValueError):
        QuenchProtocol(initial=BulkParams(1, 1), final=BulkParams(1, 1),
                       n0=20, nq=5, total_steps=10)
    # the kick site must exist on the n_max = total_steps + 2 lattice
    for kick in (-1, 13, 500):
        with pytest.raises(SiteOutOfRange, match=f"site {kick} outside 0..12"):
            QuenchProtocol(initial=BulkParams(1, 1), final=BulkParams(1, 1),
                           n0=5, nq=1, total_steps=10, kick=kick)
    for kick in (0, 12):
        QuenchProtocol(initial=BulkParams(1, 1), final=BulkParams(1, 1),
                       n0=5, nq=1, total_steps=10, kick=kick)


def test_run_quench_is_unitary_throughout():
    records = run_quench(protocol())
    assert len(records) == 121
    for rec in records:
        assert abs(rec.norm - 1.0) < 1e-9


def test_catalog_covers_every_phase_transition_family():
    names = {s.name for s in survival_catalog()}
    assert {"fig6b", "fig6c", "fig6d-no-kick", "fig6d-kick", "fig6e",
            "fig7a", "fig7b", "fig7c", "fig7d",
            "fig8-vquench-10", "fig8-vquench-01", "fig8-vquench-11"} <= names


def test_catalog_channels_match_computed_invariants():
    for sc in survival_catalog():
        assert predict_bound_states(sc.initial, sc.phi_initial) == sc.channels_before
        assert predict_bound_states(sc.final, sc.phi_final) == sc.channels_after


def test_catalog_survival_rule_consistency():
    # survive exactly when a populated channel maps onto a post-quench
    # channel; a phi flip exchanges the 0 and pi labels on the way
    for sc in survival_catalog():
        before = set()
        if sc.channels_before[0]:
            before.add("zero")
        if sc.channels_before[1]:
            before.add("pi")
        if sc.kick is not None:
            before = {{"zero": "pi", "pi": "zero"}[c] for c in before}
        if sc.phi_initial != sc.phi_final:
            before = {{"zero": "pi", "pi": "zero"}[c] for c in before}
        after = set()
        if sc.channels_after[0]:
            after.add("zero")
        if sc.channels_after[1]:
            after.add("pi")
        expected = "survive" if before & after else "die"
        assert sc.expect == expected, sc.name


@pytest.mark.parametrize("name", ["fig6b", "fig6d-no-kick", "fig6d-kick", "fig7b"])
def test_selected_catalog_outcomes(name):
    sc = [s for s in survival_catalog() if s.name == name][0]
    records = run_quench(sc.protocol())
    final = float(np.mean([r.p_edge for r in records[-10:]]))
    if sc.expect == "survive":
        assert final > 0.05
    else:
        assert final < 0.01
    if sc.sx_final is not None:
        assert records[-1].sx0 == pytest.approx(sc.sx_final, abs=0.05)


def test_kick_flips_boundary_spin_exactly_at_the_kick_step():
    sc = [s for s in survival_catalog() if s.name == "fig6d-kick"][0]
    records = run_quench(sc.protocol())
    before = records[sc.protocol().n0].sx0
    # the recorded step-20 value already includes the kick; compare with the
    # same run without it
    no_kick = [s for s in survival_catalog() if s.name == "fig6d-no-kick"][0]
    ref = run_quench(no_kick.protocol())
    assert before == pytest.approx(-ref[20].sx0, abs=1e-12)
    assert ref[20].sx0 == pytest.approx(1.0, abs=0.02)


def test_sudden_quench_continuity_in_the_same_phase():
    # shrinking the quench distance shrinks the change of the stabilized
    # edge population
    base = BulkParams(3 * PI / 4, PI / 4)
    reference = None
    drifts = []
    for delta in (0.3, 0.15, 0.075):
        proto = QuenchProtocol(initial=base, final=BulkParams(base.theta1 - delta, base.theta2),
                               n0=20, nq=1, total_steps=120)
        records = run_quench(proto)
        stable = float(np.mean([r.p_edge for r in records[-10:]]))
        if reference is None:
            ref_proto = QuenchProtocol(initial=base, final=base, n0=20, nq=1,
                                       total_steps=120)
            reference = float(np.mean([r.p_edge for r in run_quench(ref_proto)[-10:]]))
        drifts.append(abs(stable - reference))
    assert drifts[0] > drifts[1] > drifts[2]
    assert drifts[2] < 0.01


def assert_table_matches_records(table, records):
    """A chunked observable table holds the per-step records' numbers, nan in
    the same places, within the bound of merged coins against chiral steps."""
    assert [r.step for r in records] == list(range(len(table)))
    want = np.array([[r.p_edge, r.sx0, r.sx1, r.mean_n, r.var_n, r.norm] for r in records])
    assert_close_to_chiral_steps(table, want)


@pytest.mark.parametrize("name", [entry.name for entry in survival_catalog()])
@pytest.mark.parametrize("nq,total", [(1, 101), (10, 300)])
def test_quench_table_matches_run_quench(name, nq, total):
    proto = scenario(name).protocol(nq=nq, post=total - 20 - nq)
    assert_table_matches_records(quench_table(proto), run_quench(proto))


@pytest.mark.parametrize("name", ["fig6d-kick", "fig8-vquench-10", "fig9-reverse"])
def test_quench_table_does_not_depend_on_the_block_size(monkeypatch, name):
    proto = scenario(name).protocol(nq=10, post=61)  # 92 states of 94 sites
    want = quench_table(proto)
    state_bytes = 2 * 94 * 8
    # blocks of 1 state, and of 7 states, which do not divide 92
    for block_bytes in (1, 7 * state_bytes, 8 * state_bytes - 1):
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", block_bytes)
        np.testing.assert_array_equal(quench_table(proto), want)


def test_stabilized_edge_population_requires_plateau():
    records = run_quench(protocol())
    assert stabilized_edge_population([r.p_edge for r in records], start=30) is not None
    growing = [0.01 * i for i in range(60)]
    assert stabilized_edge_population(growing) is None


def ramp_survival_oracle(sc, nq_list, n0=20, post=80):
    """The ramp sweep as one run_quench per ramp duration."""
    nqs = sorted(set(int(n) for n in nq_list))
    stabilized = []
    for nq in nqs:
        series = [r.p_edge for r in run_quench(sc.protocol(n0=n0, nq=nq, post=post))]
        p_stable = stabilized_edge_population(series, start=n0 + nq)
        if p_stable is None:
            p_stable = float(np.mean(series[-10:]))
        stabilized.append(p_stable)
    return [(nq, p, 1.0 - p / stabilized[-1]) for nq, p in zip(nqs, stabilized)]


@pytest.mark.parametrize("name,nq_list,n0,post", [
    ("fig6c", range(1, 25), 20, 80),
    ("fig9-reverse", range(1, 25), 20, 80),
    ("fig6d-kick", [1, 2, 3, 4, 6, 8, 10, 12], 20, 80),     # sigma_z kick at n0
    ("fig8-vquench-10", [1, 2, 3, 4, 6, 8, 10, 12], 20, 80),  # phi flips after n0
    ("fig6c", [12, 3, 1, 3, 8, 1, 5], 20, 80),             # unsorted, duplicates
    ("fig6d-kick", [1, 2, 4, 7], 7, 33),
    ("fig6c", [1, 2, 4, 7], 9, 5),                          # too short to plateau
])
def test_ramp_survival_curve_matches_per_ramp_quenches(name, nq_list, n0, post):
    sc = scenario(name)
    got = ramp_survival_curve(sc, nq_list, n0=n0, post=post)
    want = ramp_survival_oracle(sc, nq_list, n0=n0, post=post)
    assert [row[0] for row in got] == [row[0] for row in want]
    for (_, p, loss), (_, p_ref, loss_ref) in zip(got, want):
        assert abs(p - p_ref) <= 1e-13
        assert abs(loss - loss_ref) <= 1e-12


def test_ramp_keeps_the_top_two_sites_empty(monkeypatch):
    """Every state the ramp steps from, and every state it steps to, has its
    top two sites empty; the step kernel runs once per step."""
    calls = []

    def checked(prev, first, second, sign, scratch, out, head):
        step(prev, first, second, sign, scratch, out, head)
        assert prev.shape == out.shape == (6, 2, 20 + 12 + 80 + 3)
        assert not np.any(prev[..., -2:])
        # ``out`` holds the new down spin, and at n the new up spin of site n + 1 (at
        # the last n, the amplitude shifted past the top)
        assert not np.any(out[..., 1, -2:]) and not np.any(out[..., 0, -3:])
        calls.append(sign)

    step = lattice._step
    monkeypatch.setattr(lattice, "_step", checked)
    ramp_survival_curve(scenario("fig6c"), [1, 2, 4, 6, 8, 12])
    assert len(calls) == 20 + 12 + 80


def no_stepping(*args):
    raise AssertionError("the ramp stepped")


@pytest.mark.parametrize("nq_list,n0,post,message", [
    ([0, 1, 2, 3, 4], 20, 80, "n0 and nq must be at least 1"),
    ([1, 2, 3, 4, 5], 0, 80, "n0 and nq must be at least 1"),
    ([1, 2, 3, 4, 5], 20, -5, "total_steps must cover the ramp"),
    ([], 20, 80, "at least one ramp duration"),
])
def test_ramp_rejects_bad_durations_before_stepping(monkeypatch, nq_list, n0, post, message):
    monkeypatch.setattr(lattice, "_step", no_stepping)
    with pytest.raises(ValueError, match=message):
        ramp_survival_curve(scenario("fig6c"), nq_list, n0=n0, post=post)


def test_ramp_rejects_a_kick_outside_the_shortest_lattice(monkeypatch):
    monkeypatch.setattr(lattice, "_step", no_stepping)
    far = dataclasses.replace(scenario("fig6d-kick"), kick=20 + 1 + 80 + 3)
    with pytest.raises(SiteOutOfRange):
        ramp_survival_curve(far, [1, 2, 3])


def test_ramp_survival_curve_monotone_within_wobble():
    sc = [s for s in survival_catalog() if s.name == "fig6c"][0]
    rows = ramp_survival_curve(sc, [1, 2, 3, 4, 6, 8, 10, 12])
    values = [p for _, p, _ in rows]
    for slow, fast in zip(values[1:], values[:-1]):
        assert slow >= fast - 0.02
    assert values[-1] > values[0]


def test_landau_zener_fit_exponent_in_expected_band():
    sc = [s for s in survival_catalog() if s.name == "fig6c"][0]
    fit = landau_zener_fit(sc, [1, 2, 3, 4, 6, 8, 10, 12])
    assert 1.0 <= fit.beta <= 1.6
    assert fit.r_squared > 0.9
    assert fit.delta_pi == pytest.approx(0.196, abs=0.01)
    assert len(fit.curve) == 8


def test_landau_zener_fit_requires_five_ramps():
    sc = [s for s in survival_catalog() if s.name == "fig6c"][0]
    with pytest.raises(ValueError):
        landau_zener_fit(sc, [1, 2, 3])


def test_landau_zener_insufficient_loss():
    # a quench within the same phase keeps the bound state at every rate
    sc = QuenchScenario("same-phase", BulkParams(3 * PI / 4, PI / 4),
                        BulkParams(0.7 * PI, PI / 4), PHI_ZERO, PHI_ZERO,
                        "survive", (1, 0), (1, 0))
    with pytest.raises(InsufficientLoss):
        landau_zener_fit(sc, [4, 6, 8, 10, 12])
