"""Exact deformation theory of modules over finite-dimensional algebras.

Computes the cochain complex of an algebra with operator coefficients, its
cohomology, obstruction cocycles, order-by-order integration of truncated
deformations, normalization, and equivalence witnesses, all over the
rationals or a prime field with no rounding anywhere.
"""

from ._backend import BACKEND as kernel_backend
from .algebra import (
    Algebra,
    Module,
    Violation,
    validate_algebra,
    validate_module,
)
from .cochain import (
    Cochain,
    CohomologyReport,
    coboundary_witness,
    cohomology,
    cokernel_certificate,
    differential,
    differential_matrix,
    is_cocycle,
)
from .deformation import (
    ApproximateDeformation,
    FormalAutomorphism,
    ObstructionOutcome,
    RigidityResult,
    check_deformation,
    conjugate,
    equivalent_one_step,
    extend_once,
    infinitesimal,
    integrate,
    normalize,
    obstruction,
    obstruction_outcome,
    rigidity_check,
)
from .errors import InputError, ResourceError
from .fields import PrimeField, QQ, Rationals, field_from_name
from .linalg import Matrix, solve

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "ApproximateDeformation",
    "Cochain",
    "CohomologyReport",
    "FormalAutomorphism",
    "InputError",
    "Matrix",
    "Module",
    "ObstructionOutcome",
    "PrimeField",
    "QQ",
    "Rationals",
    "ResourceError",
    "RigidityResult",
    "Violation",
    "check_deformation",
    "coboundary_witness",
    "cohomology",
    "cokernel_certificate",
    "conjugate",
    "differential",
    "differential_matrix",
    "equivalent_one_step",
    "extend_once",
    "field_from_name",
    "infinitesimal",
    "integrate",
    "is_cocycle",
    "kernel_backend",
    "normalize",
    "obstruction",
    "obstruction_outcome",
    "rigidity_check",
    "solve",
    "validate_algebra",
    "validate_module",
    "__version__",
]
