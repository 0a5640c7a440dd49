"""Sudden and ramped quench protocols for the boundary walk.

A protocol builds a bound state for ``n0`` steps, moves the coin angles to
their final values over ``nq`` steps (1 = sudden), optionally flips the
boundary phase or applies a sigma_z kick at the end of step ``n0``, and then
keeps evolving.  ``survival_catalog`` lists the named quench experiments
(the outcome each is expected to show is a test-side table), ``scenario``
looks one up by name, and ``landau_zener_fit`` extracts the exponential
dependence of the bound-state loss on the ramp duration.  Both batched
paths hand the angles of every step to the trajectory readers of
``analysis``: ``quench_table`` reads one protocol in full to the observable
table, and ``ramp_survival_curve`` runs all ramp durations of a sweep as one
stack of walkers and reads only P_edge.
``_schedule`` alone defines a protocol's angles, phase switch and kick;
``run_quench`` steps through it one ``chiral_step`` and one
``observable_record`` at a time and is the per-step reference of both.

All trajectories run in the chiral time frame from |0, down>, so the spin
readout at the boundary pins to +/-1 for a single surviving channel.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .analysis import (
    ObservableRecord,
    _read_at_edge,
    _read_in_full,
    detect_stabilization,
    linear_fit,
    observable_record,
)
from .lattice import (
    PHI_PI,
    PHI_ZERO,
    BoundaryPhase,
    BulkParams,
    SiteOutOfRange,
    chiral_step,
    initial_state,
    sigma_z_kick,
)
from .momentum import quasienergy_gaps


PLATEAU_WINDOW = 10  # states a P_edge plateau is read over
LOSS_FLOOR = 0.02  # landau_zener_fit fits only the ramp losses above this


class InsufficientLoss(RuntimeError):
    """Every ramp in the sweep lost less population than the fit floor."""


class _Protocol(NamedTuple):
    initial: BulkParams
    final: BulkParams
    phi_initial: BoundaryPhase = PHI_ZERO
    phi_final: BoundaryPhase = PHI_ZERO
    n0: int = 20
    nq: int = 1
    total_steps: int = 120
    kick: int | None = None  # site of the sigma_z kick at the end of step n0


class QuenchProtocol(_Protocol):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n0 < 1 or self.nq < 1:
            raise ValueError("n0 and nq must be at least 1")
        if self.total_steps < self.n0 + self.nq:
            raise ValueError("total_steps must cover the ramp")
        n_max = self.total_steps + 2  # the lattice a quench runs on
        if self.kick is not None and not 0 <= self.kick <= n_max:
            raise SiteOutOfRange(f"kick={self.kick}: site outside 0..{n_max}")
        return self


def _schedule(ends, n0: int, durations, steps: int):
    """The quench from ``ends.initial`` to ``ends.final`` for steps t = 1..steps
    and each ramp duration nq of ``durations``: the (steps, 2, len(durations))
    coin angles (theta1, theta2), e^{i*phi} of every step, and the kick.

    Both angles interpolate linearly and simultaneously across steps
    n0..n0+nq, theta_i + (theta_f - theta_i) * min(max(t - n0, 0), nq) / nq;
    the boundary phase switches right after step n0, and the sigma_z kick at
    site ``ends.kick``, if any, acts at the end of step n0: (n0, site) or None.
    """
    durations = np.asarray(durations, dtype=float)
    frac = (np.minimum(np.maximum(np.arange(1, steps + 1) - n0, 0)[:, None], durations)
            / durations)
    t1 = ends.initial.theta1 + (ends.final.theta1 - ends.initial.theta1) * frac
    t2 = ends.initial.theta2 + (ends.final.theta2 - ends.initial.theta2) * frac
    signs = [ends.phi_initial.sign] * n0 + [ends.phi_final.sign] * (steps - n0)
    kick = None if ends.kick is None else (n0, ends.kick)
    return np.stack([t1, t2], axis=1), signs, kick


def quench_table(protocol: QuenchProtocol) -> np.ndarray:
    """``run_quench``'s time series as one (total_steps + 1, 6) array.

    Row t holds the observables of ``analysis.observable_table`` after step
    t, read in full by ``analysis._read_in_full``.
    """
    angles, signs, kick = _schedule(protocol, protocol.n0, [protocol.nq], protocol.total_steps)
    return _read_in_full(angles[..., 0], signs, "chiral", kick)[0]


def run_quench(protocol: QuenchProtocol) -> list[ObservableRecord]:
    """Evolve |0, down> through the protocol, recording observables per step.

    The per-step reference path of ``quench_table``, on the same ``_schedule``."""
    angles, signs, kick = _schedule(protocol, protocol.n0, [protocol.nq], protocol.total_steps)
    state = initial_state(protocol.total_steps + 2)
    records = [observable_record(0, state)]
    for t, ((theta1, theta2), sign) in enumerate(zip(angles[..., 0].tolist(), signs), 1):
        state = chiral_step(state, BulkParams(theta1, theta2), PHI_ZERO if sign > 0 else PHI_PI)
        if kick is not None and t == kick[0]:
            state = sigma_z_kick(state, kick[1])
        records.append(observable_record(t, state))
    return records


def stabilized_edge_population(series, start: int = 0, window: int = PLATEAU_WINDOW,
                               tol: float = 0.01) -> float | None:
    """Mean of the P_edge ``series`` over its last ``window`` steps, provided it
    has stabilized (plateau detection from ``start`` on); None otherwise."""
    if detect_stabilization(series, window=window, tol=tol, start=start) is None:
        return None
    return float(np.mean(series[-window:]))


class QuenchScenario(NamedTuple):
    """One named quench experiment: the bulk angles and boundary phases on
    each side of the quench, and the site of its sigma_z kick, if any.  The
    outcome each one is expected to show is a test-side table."""

    name: str
    initial: BulkParams
    final: BulkParams
    phi_initial: BoundaryPhase
    phi_final: BoundaryPhase
    kick: int | None = None

    def protocol(self, n0: int = 20, nq: int = 1, post: int = 80) -> QuenchProtocol:
        return QuenchProtocol(initial=self.initial, final=self.final,
                              phi_initial=self.phi_initial, phi_final=self.phi_final,
                              n0=n0, nq=nq, total_steps=n0 + nq + post, kick=self.kick)


@functools.cache
def survival_catalog() -> tuple[QuenchScenario, ...]:
    """Named quench experiments as a declarative table, built once.

    Phase labels in the comments are the computed (nu0, nu_pi) pairs.
    """
    pi = math.pi
    return (
        # --- sudden quenches of the real bulk, start (3pi/4, pi/4) in (1,0) ---
        QuenchScenario("fig6b", BulkParams(3 * pi / 4, pi / 4), BulkParams(pi / 2, pi / 4),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig6c", BulkParams(3 * pi / 4, pi / 4), BulkParams(pi / 8, pi / 4),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig6d-no-kick", BulkParams(3 * pi / 4, pi / 4), BulkParams(-3 * pi / 4, pi / 4),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig6d-kick", BulkParams(3 * pi / 4, pi / 4), BulkParams(-3 * pi / 4, pi / 4),
                       PHI_ZERO, PHI_ZERO, kick=0),
        QuenchScenario("fig6e", BulkParams(3 * pi / 4, pi / 4), BulkParams(0.0, pi / 4),
                       PHI_ZERO, PHI_ZERO),
        # --- sudden quenches, start (-pi/8, pi/4) in (1,1) ---
        QuenchScenario("fig7a", BulkParams(-pi / 8, pi / 4), BulkParams(pi / 8, pi / 4),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig7b", BulkParams(-pi / 8, pi / 4), BulkParams(-pi / 8, -pi / 4),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig7c", BulkParams(-pi / 8, pi / 4), BulkParams(-pi / 2, pi / 4),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig7d", BulkParams(-pi / 8, pi / 4), BulkParams(pi / 2, pi / 4),
                       PHI_ZERO, PHI_ZERO),
        # --- quenches that start in (0,0): nothing to protect ---
        QuenchScenario("fig-noquench-00", BulkParams(0.0, -pi / 4), BulkParams(0.0, -pi / 8),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig-noquench-10", BulkParams(0.0, -pi / 4), BulkParams(pi / 2, -pi / 4),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig-noquench-01", BulkParams(0.0, -pi / 4), BulkParams(-pi / 2, -pi / 4),
                       PHI_ZERO, PHI_ZERO),
        QuenchScenario("fig-noquench-11", BulkParams(0.0, -pi / 4), BulkParams(0.0, pi / 4),
                       PHI_ZERO, PHI_ZERO),
        # --- virtual-bulk quenches: phi 0 -> pi, real bulk fixed ---
        QuenchScenario("fig8-vquench-10", BulkParams(3 * pi / 4, pi / 4), BulkParams(3 * pi / 4, pi / 4),
                       PHI_ZERO, PHI_PI),
        QuenchScenario("fig8-vquench-01", BulkParams(-3 * pi / 4, pi / 4), BulkParams(-3 * pi / 4, pi / 4),
                       PHI_ZERO, PHI_PI),
        QuenchScenario("fig8-vquench-11", BulkParams(-pi / 8, pi / 4), BulkParams(-pi / 8, pi / 4),
                       PHI_ZERO, PHI_PI),
        QuenchScenario("fig8-vquench-00", BulkParams(0.0, pi / 4), BulkParams(0.0, pi / 4),
                       PHI_ZERO, PHI_PI),
        # --- ramped-quench scenario run in the opposite direction ---
        QuenchScenario("fig9-reverse", BulkParams(pi / 8, pi / 4), BulkParams(3 * pi / 4, pi / 4),
                       PHI_ZERO, PHI_ZERO),
    )


def scenario(name: str) -> QuenchScenario:
    """The catalog entry called ``name``; ValueError names the known ones."""
    catalog = survival_catalog()
    for entry in catalog:
        if entry.name == name:
            return entry
    known = ", ".join(entry.name for entry in catalog)
    raise ValueError(f"unknown scenario {name!r}; known: {known}")


def ramp_survival_curve(scenario: QuenchScenario, nq_list, n0: int = 20,
                        post: int = 80) -> list[tuple[int, float, float]]:
    """Stabilized post-quench P_edge and channel loss for each ramp duration.

    Every distinct nq is one row of a stack of P walkers, all started at
    |0, down> and run together through ``analysis._read_at_edge`` for
    n0 + max(nq) + post steps; each row follows the ``_schedule`` of its own
    duration.  Only P_edge is read, so state t is stepped on the sites that
    can still reach sites 0 and 1 (the double light cone).  A row's P_edge at
    step t does not depend on later steps, so row nq is read up to its own
    length n0 + nq + post, as ``run_quench`` would run it.  The readout is
    always the mean of a row's last PLATEAU_WINDOW states, which all follow
    the ramp if post >= PLATEAU_WINDOW - 1; plateau detection only tells
    whether the row settled.

    The loss column is the fraction of the bound-channel population
    transferred out relative to the adiabatic limit, estimated by the
    slowest ramp of the sweep.  (Raw P_edge cannot serve as the reference:
    even a perfectly adiabatic ramp changes P_edge by the ratio of the
    initial and final mode edge weights.)  Rows come back sorted by nq.
    """
    nqs = sorted(set(int(n) for n in nq_list))
    if not nqs:
        raise ValueError("nq_list needs at least one ramp duration")
    scenario.protocol(n0=n0, nq=nqs[0], post=post)  # validates n0, nq, post and kick
    angles, signs, kick = _schedule(scenario, n0, nqs, n0 + nqs[-1] + post)
    p_edge = _read_at_edge(angles, signs, kick)

    stabilized = []
    for row, nq in enumerate(nqs):
        series = p_edge[:n0 + nq + post + 1, row]
        p_stable = stabilized_edge_population(series, start=n0 + nq)
        if p_stable is None:
            p_stable = float(np.mean(series[-PLATEAU_WINDOW:]))
        stabilized.append(p_stable)
    p_adiabatic = stabilized[-1]
    if p_adiabatic <= 0:
        raise InsufficientLoss("even the slowest ramp retains no bound state")
    return [(nq, p, 1.0 - p / p_adiabatic) for nq, p in zip(nqs, stabilized)]


class LZFit(NamedTuple):
    beta: float
    amplitude: float
    r_squared: float
    delta_pi: float
    curve: tuple = ()  # (nq, p_stable, loss) rows


def landau_zener_fit(scenario: QuenchScenario, nq_list, n0: int = 20,
                     post: int = 80) -> LZFit:
    """Exponential fit loss ~ A exp(-beta nq) of the ramp survival curve.

    Only ramps that transfer population out of the bound channel above
    LOSS_FLOOR enter the log-linear regression (the floor sits above the
    residual interference wobble of the stabilized readout); the
    quasi-energy gap at E = pi of the final parameters is reported for the
    rate-crossover comparison.
    """
    if len(set(int(n) for n in nq_list)) < 5:
        raise ValueError("need at least 5 distinct ramp durations")
    rows = ramp_survival_curve(scenario, nq_list, n0=n0, post=post)
    pts = [(nq, loss) for nq, _, loss in rows if loss > LOSS_FLOOR]
    if len(pts) < 3:
        raise InsufficientLoss("fewer than 3 ramps lost population above the floor")
    nqs = np.array([q for q, _ in pts], dtype=float)
    slope, intercept, r_squared = linear_fit(nqs, np.log(np.array([l for _, l in pts])))
    gaps = quasienergy_gaps(scenario.final)
    return LZFit(beta=-float(slope), amplitude=float(np.exp(intercept)),
                 r_squared=r_squared, delta_pi=gaps.delta_pi, curve=tuple(rows))
