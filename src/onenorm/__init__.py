"""1-norms of electronic-structure Hamiltonians and how to shrink them.

Parse FCIDUMP integrals, evaluate the Pauli-basis 1-norm directly from
the molecular integrals, decompose it, localize orbitals, and minimize it
with a direct orbital optimizer -- all checked against an exact
Jordan-Wigner expansion on small systems.
"""

from .analysis import ScalingFit, aggregate_report, fit_scaling
from .fcidump import parse_auxiliary, parse_fcidump, write_auxiliary, write_fcidump
from .integrals import (
    ActiveSpaceSpec,
    AuxiliaryIntegrals,
    MolecularHamiltonian,
    class_decomposition,
)
from .localize import LocalizationRequest, LocalizationResult, cost_er, cost_fb, cost_pm, localize
from .norms import (
    CholeskyFactorization,
    NormReport,
    cholesky_decompose,
    lambda_c,
    lambda_q,
    lambda_sf,
    lambda_t,
    lambda_v_lee,
    lambda_v_prime,
    norm_report,
)
from .optimize import (
    OptimizerConfig, OptimizationResult, jacobi_rotation_norm_scan, minimize_norm, objective,
)
from .qubit_oracle import (
    PauliTermSum,
    dense_matrix,
    determinant_expectation,
    jordan_wigner_expand,
    lambda_q_oracle,
    sparsity_count,
)
from .transform import (
    AntisymmetricGenerator,
    OrbitalRotation,
    exp_generator,
    freeze_core,
    lowdin_orthogonalize,
    rotate_hamiltonian,
    transform_one_body,
    transform_two_body,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSpaceSpec",
    "AntisymmetricGenerator",
    "AuxiliaryIntegrals",
    "CholeskyFactorization",
    "LocalizationRequest",
    "LocalizationResult",
    "MolecularHamiltonian",
    "NormReport",
    "OptimizationResult",
    "OptimizerConfig",
    "OrbitalRotation",
    "PauliTermSum",
    "ScalingFit",
    "aggregate_report",
    "cholesky_decompose",
    "class_decomposition",
    "cost_er",
    "cost_fb",
    "cost_pm",
    "dense_matrix",
    "determinant_expectation",
    "exp_generator",
    "fit_scaling",
    "freeze_core",
    "jacobi_rotation_norm_scan",
    "jordan_wigner_expand",
    "lambda_c",
    "lambda_q",
    "lambda_q_oracle",
    "lambda_sf",
    "lambda_t",
    "lambda_v_lee",
    "lambda_v_prime",
    "localize",
    "lowdin_orthogonalize",
    "minimize_norm",
    "norm_report",
    "objective",
    "parse_auxiliary",
    "parse_fcidump",
    "rotate_hamiltonian",
    "sparsity_count",
    "transform_one_body",
    "transform_two_body",
    "write_auxiliary",
    "write_fcidump",
]
