"""Split-step quantum walk on a semi-infinite phonon lattice with a tunable boundary."""

from .lattice import (
    BulkParams,
    BoundaryPhase,
    PHI_PI,
    PHI_ZERO,
    WalkerState,
    build_step_matrix,
    chiral_step,
    evolve,
    floquet_step,
    initial_state,
    sigma_z_kick,
)

__all__ = [
    "BulkParams",
    "BoundaryPhase",
    "PHI_PI",
    "PHI_ZERO",
    "WalkerState",
    "build_step_matrix",
    "chiral_step",
    "evolve",
    "floquet_step",
    "initial_state",
    "sigma_z_kick",
]

__version__ = "0.1.0"
