"""Exact deformation theory of modules over finite-dimensional algebras.

Computes the cochain complex of an algebra with operator coefficients, its
cohomology, obstruction cocycles, order-by-order integration of truncated
deformations, normalization, and equivalence witnesses, all over the
rationals or a prime field with no rounding anywhere.

Each public name is imported from its module on first access (PEP 562),
so importing the package, or running a command that needs few of them,
loads only the modules that are used.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "kernel_backend": "_backend",
    "Algebra": "algebra",
    "Module": "algebra",
    "Violation": "algebra",
    "validate_algebra": "algebra",
    "validate_module": "algebra",
    "Cochain": "cochain",
    "CohomologyReport": "cochain",
    "coboundary_witness": "cochain",
    "cohomology": "cochain",
    "cokernel_certificate": "cochain",
    "differential": "cochain",
    "differential_matrix": "cochain",
    "is_cocycle": "cochain",
    "ApproximateDeformation": "deformation",
    "FormalAutomorphism": "deformation",
    "ObstructionOutcome": "deformation",
    "RigidityResult": "deformation",
    "check_deformation": "deformation",
    "conjugate": "deformation",
    "equivalent_one_step": "deformation",
    "extend_once": "deformation",
    "infinitesimal": "deformation",
    "integrate": "deformation",
    "normalize": "deformation",
    "obstruction": "deformation",
    "obstruction_outcome": "deformation",
    "rigidity_check": "deformation",
    "InputError": "errors",
    "ResourceError": "errors",
    "PrimeField": "fields",
    "QQ": "fields",
    "Rationals": "fields",
    "field_from_name": "fields",
    "Matrix": "linalg",
    "solve": "linalg",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
