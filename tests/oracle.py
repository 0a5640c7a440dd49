"""Test-side references that no code path of the package runs.

The k-space one-step unitaries of the bulk walk are the oracle of the
closed-form dispersion, gaps and windings in ``fockwalk.momentum``.
``assert_close_to_chiral_steps`` holds the bound within which a batched
chiral-frame time series, stepped with merged coins, matches one
``chiral_step`` per step.
"""

import numpy as np

from fockwalk.lattice import BulkParams, coin_matrix
from fockwalk.momentum import TimeFrame


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


# A merged-coin chiral trajectory and the per-step ``chiral_step`` path
# round differently, by about 1e-16 per step and amplitude; these bounds hold
# for walks of up to ~400 steps with about tenfold margin.  sx0 and sx1 divide
# by a site population that may be as small as OCCUPATION_FLOOR.
MERGED_TOL = {"p_edge": 1e-12, "sx": 1e-10, "moments": 1e-12, "norm": 1e-12, "amps": 1e-12}


def assert_close_to_chiral_steps(table, want):
    """Observable rows (p_edge, sx0, sx1, mean_n, var_n, norm) of a merged-coin
    chiral trajectory against those of one ``chiral_step`` per step: nan in the
    same places, the rest within ``MERGED_TOL`` (mean_n and var_n relative to
    max(1, |value|))."""
    table, want = np.asarray(table), np.asarray(want)
    assert table.shape == want.shape
    np.testing.assert_array_equal(np.isnan(table), np.isnan(want))
    table, want = np.nan_to_num(table), np.nan_to_num(want)
    moved = np.abs(table - want)
    moved[:, 3:5] /= np.maximum(1.0, np.abs(want[:, 3:5]))
    for column, bound in ((0, "p_edge"), (1, "sx"), (2, "sx"), (3, "moments"),
                          (4, "moments"), (5, "norm")):
        assert moved[:, column].max(initial=0.0) <= MERGED_TOL[bound], bound
