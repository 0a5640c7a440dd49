"""The value records of ``src/fockwalk``.

The records are ``typing.NamedTuple`` classes.  The four that validate their
fields (``BulkParams``, ``BoundaryPhase``, ``PulseConfig`` and
``QuenchProtocol``) are thin subclasses whose ``__new__`` builds the tuple and
then checks it, and ``WalkerState``, the one mutable record, is a
``__slots__`` class.  As tuples, records compare equal when their fields do,
iterate over their fields and have a length; ``_replace`` and ``_make``
build a new tuple without calling a subclass's ``__new__``, so ``src/``
never rebuilds a record through them.
"""

import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import fockwalk
from fockwalk.analysis import EigenMode, ObservableRecord
from fockwalk.lattice import (
    PHI_PI,
    PHI_ZERO,
    BoundaryPhase,
    BulkParams,
    SiteOutOfRange,
    WalkerState,
)
from fockwalk.momentum import GapReport, PhaseLabel
from fockwalk.pulse import MAX_PASSAGE_STEPS, CycleReport, PulseConfig
from fockwalk.quench import LZFit, QuenchProtocol, QuenchScenario

SRC = Path(fockwalk.__file__).parent
VALIDATED = (BulkParams, BoundaryPhase, PulseConfig, QuenchProtocol)


def _protocol(**changes):
    fields = dict(initial=BulkParams(1.0, 0.5), final=BulkParams(0.5, 0.5), n0=2, nq=1,
                  total_steps=5)
    return QuenchProtocol(**{**fields, **changes})


@pytest.mark.parametrize("build,error,message", [
    (lambda: BulkParams(math.nan, 0.0), ValueError, "coin angles must be finite"),
    (lambda: BulkParams(0.0, np.array([0.0, math.inf])), ValueError, "coin angles must be finite"),
    (lambda: BulkParams(theta1=-math.inf, theta2=0.0), ValueError, "coin angles must be finite"),
    (lambda: BoundaryPhase(1.0), ValueError, "boundary phase must be exactly 0 or pi"),
    (lambda: BoundaryPhase(phi=-math.pi), ValueError, "boundary phase must be exactly 0 or pi"),
    (lambda: PulseConfig(0.0, 1.0, 1.0, 0.1), ValueError,
     "pulse omega0 must be finite and positive, got 0.0"),
    (lambda: PulseConfig(1.0, math.inf, 1.0, 0.1), ValueError,
     "pulse delta0 must be finite and positive, got inf"),
    (lambda: PulseConfig(1.0, 1.0, math.nan, 0.1), ValueError,
     "pulse tau must be finite and positive, got nan"),
    (lambda: PulseConfig(omega0=1.0, delta0=1.0, tau=1.0, integrator_step=-0.1), ValueError,
     "pulse integrator_step must be finite and positive, got -0.1"),
    (lambda: PulseConfig(1.0, 1.0, 2.0 * MAX_PASSAGE_STEPS, 1.0), ValueError,
     "passage steps; the limit is"),
    (lambda: PulseConfig(1.0, 1.0, 1e300, 1e-300), ValueError, "passage steps"),
    (lambda: _protocol(n0=0), ValueError, "n0 and nq must be at least 1"),
    (lambda: _protocol(nq=0), ValueError, "n0 and nq must be at least 1"),
    (lambda: _protocol(total_steps=2), ValueError, "total_steps must cover the ramp"),
    (lambda: _protocol(kick=5 + 3), SiteOutOfRange, r"kick=8: site outside 0\.\.7"),
    (lambda: _protocol(kick=-1), SiteOutOfRange, r"kick=-1: site outside 0\.\.7"),
    (lambda: WalkerState(np.zeros(3), 0), ValueError, r"amplitudes must have shape \(2, N\)"),
    (lambda: WalkerState(np.zeros((3, 4)), 0), ValueError, r"got \(3, 4\)"),
])
def test_validated_records_reject_what_they_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_validated_records_build_by_position_keyword_default_and_pickle():
    protocol = _protocol(kick=7)
    assert protocol == QuenchProtocol(BulkParams(1.0, 0.5), BulkParams(0.5, 0.5), PHI_ZERO,
                                      PHI_ZERO, 2, 1, 5, 7)
    assert QuenchProtocol(BulkParams(1.0, 0.5), BulkParams(0.5, 0.5)).total_steps == 120
    assert PulseConfig(1.0, 2.0, tau=3.0, integrator_step=0.5).delta0 == 2.0
    assert PHI_PI.sign == -1.0 and BoundaryPhase(phi=0.0).sign == 1.0
    for record in (protocol, PulseConfig(1.0, 2.0, 3.0, 0.5), PHI_PI):
        again = pickle.loads(pickle.dumps(record))  # rebuilt through __new__
        assert type(again) is type(record) and again == record
    with pytest.raises(TypeError):
        BulkParams(1.0)
    with pytest.raises(TypeError):
        BulkParams(1.0, 2.0, 3.0)


@pytest.mark.parametrize("record", VALIDATED)
def test_validated_records_add_no_instance_dict(record):
    assert vars(record)["__slots__"] == () and record.__mro__[1].__bases__ == (tuple,)


def test_records_are_immutable_tuples():
    params = BulkParams(1.0, 0.5)
    with pytest.raises(AttributeError):
        params.theta1 = 0.0
    with pytest.raises(AttributeError):
        params.extra = 0.0
    state = WalkerState(np.zeros((2, 3)), 0)
    state.step_count = 1  # the mutable record
    with pytest.raises(AttributeError):
        state.extra = 0.0
    for record in (ObservableRecord, EigenMode, PhaseLabel, GapReport, CycleReport,
                   QuenchScenario, LZFit, *VALIDATED):
        assert issubclass(record, tuple) and record._fields
    assert tuple(GapReport(0.5, 0.25)) == (0.5, 0.25) and len(PhaseLabel(1, 0, 1, 0)) == 4
    assert LZFit(1.0, 2.0, 0.9, 0.1).curve == ()


def test_src_never_rebuilds_a_record_around_its_new():
    """``_replace`` and ``_make`` skip a validating subclass's ``__new__``."""
    used = sorted(f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in ("_replace", "_make"))
    assert used == []
