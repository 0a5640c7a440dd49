"""Bulk momentum-space analytics for the split-step walk.

Dispersion of the translation-invariant walk, closed-form quasi-energy
gaps, closed-form windings of the Bloch curves of the two chiral time frames
around their common chiral (x) axis, the Z2 x Z2 phase label built from
them, the boundary <-> virtual-bulk correspondence, and bound-state
prediction via the topology-mismatch rule.

Momentum convention: plane waves |n> ~ e^{ikn}, so the up-shift is
S_up(k) = diag(e^{-ik}, 1) and the down-shift S_dn(k) = diag(1, e^{ik}),
giving the dispersion cos E(k) = cos(t2/2) cos(t1/2) cos k - sin(t1/2) sin(t2/2).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .lattice import BoundaryPhase, BulkParams


class GapClosed(RuntimeError):
    """A quasi-energy gap is closed or below the momentum-grid resolution."""


class TimeFrame(Enum):
    F1 = 1
    F2 = 2


class PhaseLabel(NamedTuple):
    """Frame windings (nu_prime, nu_dprime) and Z2 pair (nu0, nu_pi), ints or int arrays."""

    nu_prime: int
    nu_dprime: int
    nu0: int
    nu_pi: int


class GapReport(NamedTuple):
    """Gaps of the band to 0 and to pi; arrays when the angles are arrays."""

    delta0: float
    delta_pi: float


def _half_angles(params: BulkParams):
    """(cos, sin) of theta1/2, then (cos, sin) of theta2/2, elementwise."""
    h1, h2 = params.theta1 / 2.0, params.theta2 / 2.0
    return np.cos(h1), np.sin(h1), np.cos(h2), np.sin(h2)


def dispersion_cos_e(params: BulkParams, k) -> np.ndarray:
    """cos E(k) from the closed-form dispersion relation."""
    c1, s1, c2, s2 = _half_angles(params)
    return c2 * c1 * np.cos(k) - s1 * s2


def dispersion_energy(params: BulkParams, k) -> np.ndarray:
    """Quasi-energy branch E(k) in [0, pi]."""
    return np.arccos(np.clip(dispersion_cos_e(params, k), -1.0, 1.0))


def quasienergy_gaps(params: BulkParams) -> GapReport:
    """Minimal distances of the band E(k) to 0 and to pi, elementwise over
    array angles (theta1 sets the shape): cos E(k) = c1 c2 cos k - s1 s2 is
    monotone in cos k, so the band edges sit at k = 0 and k = pi, and
    delta0 = min E, delta_pi = pi - max E."""
    ks = np.reshape([0.0, math.pi], (2,) + (1,) * np.ndim(params.theta1))
    edges = dispersion_energy(params, ks)
    return GapReport(delta0=edges.min(axis=0), delta_pi=math.pi - edges.max(axis=0))


def _labels(params: BulkParams, n_k: int) -> tuple[PhaseLabel, GapReport, np.ndarray]:
    """Label and gaps of `params`, elementwise, and where n_k resolves the label.

    sin E(k) n(k) traces the ellipse (s1c2 cos k + c1s2, c2 sin k) in the y-z
    plane in F1 and (s1c2 + c1s2 cos k, c1 sin k) in F2.  It encloses the
    origin iff its semi-axis along y exceeds its centre's offset along y
    (|s1c2| > |c1s2| in F1, |c1s2| > |s1c2| in F2), and then turns with the
    sign of s1 (F1) or s2 (F2).  The curve moves at speed <= 1 in k and
    keeps distance sin E(k) from the origin, so n_k samples count that
    winding exactly where min(sin delta0, sin delta_pi) > 2 pi / n_k.  The
    Z2 pair is fixed by the bulk-edge anchor (pi/2, 0) -> (1, 0) and
    reproduces the dense-oracle edge-mode counts across the diagram.
    """
    if n_k < 1:
        raise ValueError(f"n_k must be >= 1, got {n_k}")
    gaps = quasienergy_gaps(params)
    c1, s1, c2, s2 = _half_angles(params)
    a, b = np.abs(s1 * c2), np.abs(c1 * s2)
    nu_p = np.where(a > b, np.where(s1 > 0, 1, -1), 0)
    nu_dp = np.where(b > a, np.where(s2 > 0, 1, -1), 0)
    label = PhaseLabel(nu_p, nu_dp, (1 + nu_p + nu_dp) // 2 % 2, (1 - nu_p + nu_dp) // 2 % 2)
    resolved = np.minimum(np.sin(gaps.delta0), np.sin(gaps.delta_pi)) > 2.0 * math.pi / n_k
    return label, gaps, resolved


def _unresolved(delta0: float, delta_pi: float, n_k: int) -> GapClosed:
    return GapClosed(f"gaps ({delta0:.2e}, {delta_pi:.2e}) not resolved by n_k = {n_k}: "
                     f"needs sin(gap) > 2pi/n_k = {2.0 * math.pi / n_k:.2e}")


def z2_invariants(params: BulkParams, n_k: int = 2048) -> PhaseLabel:
    """Z2 x Z2 phase label of one point: nu0 = ((1 + nu' + nu'') // 2) mod 2
    counts the 0-energy channel and nu_pi = ((1 - nu' + nu'') // 2) mod 2 the
    pi-energy channel.  Raises as `winding_number` does."""
    label, gaps, resolved = _labels(params, n_k)
    if not resolved:
        raise _unresolved(gaps.delta0, gaps.delta_pi, n_k)
    return PhaseLabel(*map(int, label))


def winding_number(params: BulkParams, frame: TimeFrame, n_k: int = 2048) -> int:
    """Winding of the frame Bloch curve around the chiral (x) axis: the closed
    form of the turns of atan2(z, y) along the curve sampled on a uniform n_k
    grid; (pi/2, 0) gives +1 in frame F1.  Raises ValueError for n_k < 1 and
    GapClosed where that sampled count is not exact."""
    label = z2_invariants(params, n_k)
    return label.nu_prime if frame is TimeFrame.F1 else label.nu_dprime


def virtual_bulk_params(theta1, phi: BoundaryPhase) -> BulkParams:
    """Bulk parameters of the virtual phase encoded by the boundary operator."""
    return BulkParams(theta1, -math.pi if phi.phi == 0.0 else math.pi)


def _mismatch(real: PhaseLabel, virtual: PhaseLabel):
    """(b0, b_pi): 1 in each channel where the two labels differ, else 0."""
    return real.nu0 ^ virtual.nu0, real.nu_pi ^ virtual.nu_pi


def predict_bound_states(real: BulkParams, phi: BoundaryPhase, n_k: int = 2048) -> tuple[int, int]:
    """Channel-resolved bound-state prediction at the boundary.

    (b0, b_pi) with b = 1 where the real and virtual bulks disagree in that
    channel: bound states exist iff the two topologies differ.
    """
    return _mismatch(z2_invariants(real, n_k),
                     z2_invariants(virtual_bulk_params(real.theta1, phi), n_k))


def bound_state_channels(real: BulkParams, phi: BoundaryPhase,
                         n_k: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """`predict_bound_states` elementwise over array angles: int arrays
    (b0, b_pi) holding -1 wherever either bulk's label is unresolved."""
    (real_label, _, real_ok), (virtual_label, _, virtual_ok) = (
        _labels(params, n_k) for params in (real, virtual_bulk_params(real.theta1, phi)))
    return tuple(np.where(real_ok & virtual_ok, b, -1) for b in _mismatch(real_label, virtual_label))


def phase_diagram(thetas1, thetas2, n_k: int = 1024, transition_tol: float = 1e-2
                  ) -> tuple[BulkParams, GapReport, PhaseLabel, np.ndarray]:
    """Classify every (theta1, theta2) grid point; mark gap closures.

    Returns the columns (params, gaps, label, transition) in row-major order
    (theta1 outer), each point's gaps computed once in one elementwise pass.
    A transition point (smaller gap below transition_tol) has a meaningless
    label; GapClosed names the first other point that n_k leaves unresolved.
    """
    t1, t2 = np.asarray(thetas1, dtype=float), np.asarray(thetas2, dtype=float)
    grid = BulkParams(np.repeat(t1, t2.size), np.tile(t2, t1.size))
    label, gaps, resolved = _labels(grid, n_k)
    transition = np.minimum(gaps.delta0, gaps.delta_pi) < transition_tol
    unresolved = np.flatnonzero(~(transition | resolved))
    if unresolved.size:
        raise _unresolved(gaps.delta0[unresolved[0]], gaps.delta_pi[unresolved[0]], n_k)
    return grid, gaps, label, transition
