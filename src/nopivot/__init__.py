"""Randomized multipliers that make Gaussian elimination without pivoting safe.

The package bundles the dense kernels (Jacobi SVD, Householder QR, norms),
the elimination variants with their opt-in safety monitor, FFT-backed structured
multipliers, seeded random generators, hard-instance construction, the
preconditioned solve pipeline, and the experiment / verification harness.
"""

from .dense import (
    QrResult,
    SvdResult,
    householder_qr,
    jacobi_svd,
    read_matrix,
    singular_values,
    spectral_norm,
    write_matrix,
)
from .errors import (
    ConvergenceError,
    GenerationError,
    NonFiniteSolutionError,
    NopivotError,
    ShapeError,
    SingularMatrixError,
    SingularPivotBlockError,
    SizeError,
    ZeroPivotError,
)
from .experiments import DEFAULT_MASTER_SEED, ExperimentConfig, run_residual_experiment
from .factor import (
    BlockFactorization,
    GenpFactorization,
    GeppFactorization,
    SafetyBounds,
    SafetyReport,
    block_genp_factor,
    genp_factor,
    gepp_factor,
    lu_solve,
    safety_bounds,
    safety_check,
    schur_complement,
)
from .instances import HardInstance, hard_matrix
from .pipeline import (
    PreconditionPlan,
    SolveOutcome,
    preconditioned_solve,
    refine_once,
    relative_residual,
)
from .randgen import (
    FiniteSet,
    Seed,
    finite_set_matrix,
    gaussian_circulant,
    gaussian_matrix,
    gaussian_toeplitz,
    random_orthonormal,
)
from .reports import StatsRow, TableReport
from .transforms import CirculantOperator, HankelOperator, ToeplitzOperator

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
