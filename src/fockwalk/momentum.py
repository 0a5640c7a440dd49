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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import BoundaryPhase, BulkParams, coin_matrix


class GapClosed(RuntimeError):
    """A quasi-energy gap is closed or below the momentum-grid resolution."""


class TimeFrame(Enum):
    F1 = 1
    F2 = 2


@dataclass(frozen=True)
class PhaseLabel:
    """Frame windings (nu_prime, nu_dprime) and the Z2 pair (nu0, nu_pi)."""

    nu_prime: int
    nu_dprime: int
    nu0: int
    nu_pi: int


@dataclass(frozen=True)
class GapReport:
    delta0: float
    delta_pi: float


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


def _half_angles(params: BulkParams) -> tuple[float, float, float, float]:
    """(cos, sin) of theta1/2, then (cos, sin) of theta2/2."""
    return (math.cos(params.theta1 / 2.0), math.sin(params.theta1 / 2.0),
            math.cos(params.theta2 / 2.0), math.sin(params.theta2 / 2.0))


def dispersion_cos_e(params: BulkParams, k) -> np.ndarray:
    """cos E(k) from the closed-form dispersion relation."""
    c1, s1, c2, s2 = _half_angles(params)
    return c2 * c1 * np.cos(k) - s1 * s2


def dispersion_energy(params: BulkParams, k) -> np.ndarray:
    """Quasi-energy branch E(k) in [0, pi]."""
    return np.arccos(np.clip(dispersion_cos_e(params, k), -1.0, 1.0))


def _frame_windings(params: BulkParams, n_k: int, gaps: GapReport) -> tuple[int, int]:
    """Windings (nu', nu'') of frames F1 and F2, with `gaps` of `params`.

    sin E(k) n(k) traces the ellipse (s1c2 cos k + c1s2, c2 sin k) in the y-z
    plane in F1 and (s1c2 + c1s2 cos k, c1 sin k) in F2.  It encloses the
    origin iff its semi-axis along y exceeds its centre's offset along y
    (|s1c2| > |c1s2| in F1, |c1s2| > |s1c2| in F2), and then turns with the
    sign of s1 (F1) or s2 (F2).  The curve moves at speed <= 1 in k and
    keeps distance sin E(k) from the origin, so n_k samples count that
    winding exactly when min(sin delta0, sin delta_pi) > 2 pi / n_k; else
    GapClosed.
    """
    if n_k < 1:
        raise ValueError(f"n_k must be >= 1, got {n_k}")
    spacing = 2.0 * math.pi / n_k
    if min(math.sin(gaps.delta0), math.sin(gaps.delta_pi)) <= spacing:
        raise GapClosed(f"gaps ({gaps.delta0:.2e}, {gaps.delta_pi:.2e}) not resolved "
                        f"by n_k = {n_k}: needs sin(gap) > 2pi/n_k = {spacing:.2e}")
    c1, s1, c2, s2 = _half_angles(params)
    a, b = abs(s1 * c2), abs(c1 * s2)
    nu_p = (1 if s1 > 0 else -1) if a > b else 0
    nu_dp = (1 if s2 > 0 else -1) if b > a else 0
    return nu_p, nu_dp


def winding_number(params: BulkParams, frame: TimeFrame, n_k: int = 2048) -> int:
    """Winding of the frame Bloch curve around the chiral (x) axis.

    Closed form of the turns of atan2(z, y) along the curve sampled on a
    uniform n_k grid; (pi/2, 0) gives +1 in frame F1.  Raises ValueError for
    n_k < 1 and GapClosed unless min(sin delta0, sin delta_pi) > 2 pi / n_k,
    the condition under which that sampled count is exact.
    """
    nu_p, nu_dp = _frame_windings(params, n_k, quasienergy_gaps(params))
    return nu_p if frame is TimeFrame.F1 else nu_dp


def _phase_label(params: BulkParams, n_k: int, gaps: GapReport) -> PhaseLabel:
    nu_p, nu_dp = _frame_windings(params, n_k, gaps)
    nu0 = ((1 + nu_p + nu_dp) // 2) % 2
    nu_pi = ((1 - nu_p + nu_dp) // 2) % 2
    return PhaseLabel(nu_prime=nu_p, nu_dprime=nu_dp, nu0=nu0, nu_pi=nu_pi)


def z2_invariants(params: BulkParams, n_k: int = 2048) -> PhaseLabel:
    """Z2 x Z2 phase label from the two frame windings.

    nu0 counts the 0-energy channel and nu_pi the pi-energy channel.  The
    combination below is fixed by the bulk-edge anchor (pi/2, 0) -> (1, 0)
    and reproduces the dense-oracle edge-mode counts across the diagram.
    """
    return _phase_label(params, n_k, quasienergy_gaps(params))


def virtual_bulk_params(theta1: float, phi: BoundaryPhase) -> BulkParams:
    """Bulk parameters of the virtual phase encoded by the boundary operator."""
    return BulkParams(theta1, -math.pi if phi.phi == 0.0 else math.pi)


def predict_bound_states(real: BulkParams, phi: BoundaryPhase,
                         n_k: int = 2048) -> tuple[int, int]:
    """Channel-resolved bound-state prediction at the boundary.

    (b0, b_pi) with b = 1 where the real and virtual bulks disagree in that
    channel: bound states exist iff the two topologies differ.
    """
    real_label = z2_invariants(real, n_k)
    virt_label = z2_invariants(virtual_bulk_params(real.theta1, phi), n_k)
    return (real_label.nu0 ^ virt_label.nu0, real_label.nu_pi ^ virt_label.nu_pi)


def quasienergy_gaps(params: BulkParams) -> GapReport:
    """Minimal distances of the band E(k) to 0 and to pi.

    cos E(k) = c1 c2 cos k - s1 s2 is monotone in cos k, so the band edges
    sit at k = 0 and k = pi: delta0 = min E and delta_pi = pi - max E.
    """
    edges = dispersion_energy(params, np.array([0.0, math.pi]))
    return GapReport(delta0=float(edges.min()), delta_pi=math.pi - float(edges.max()))


@dataclass(frozen=True)
class DiagramPoint:
    theta1: float
    theta2: float
    label: PhaseLabel | None
    gaps: GapReport
    status: str  # "ok" or "transition"


def phase_diagram(thetas1, thetas2, n_k: int = 1024,
                  transition_tol: float = 1e-2) -> list[DiagramPoint]:
    """Classify every (theta1, theta2) grid point; mark gap closures."""
    points = []
    for t1 in thetas1:
        for t2 in thetas2:
            params = BulkParams(float(t1), float(t2))
            gaps = quasienergy_gaps(params)
            if min(gaps.delta0, gaps.delta_pi) < transition_tol:
                points.append(DiagramPoint(float(t1), float(t2), None, gaps, "transition"))
            else:
                label = _phase_label(params, n_k, gaps)
                points.append(DiagramPoint(float(t1), float(t2), label, gaps, "ok"))
    return points
