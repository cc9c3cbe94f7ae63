"""carev: exact reversibility analysis and inversion of multidimensional
linear cellular automata over Z_p under null boundary conditions."""

from .ca import Pattern, RuleSpec, build_T, evolve_local, evolve_matrix, theta, theta_inv
from .errors import CarevError, NotReversible
from .field import ExtField, Poly, PrimeField, roots_with_multiplicity, splitting_field
from .spectral import GenJordan, generalized_jordan, invert_T, reversibility
from .structmat import FMatrix, kron_product, kron_sum, toeplitz

__version__ = "0.1.0"

__all__ = [
    "CarevError",
    "ExtField",
    "FMatrix",
    "GenJordan",
    "NotReversible",
    "Pattern",
    "Poly",
    "PrimeField",
    "RuleSpec",
    "build_T",
    "evolve_local",
    "evolve_matrix",
    "generalized_jordan",
    "invert_T",
    "kron_product",
    "kron_sum",
    "reversibility",
    "roots_with_multiplicity",
    "splitting_field",
    "theta",
    "theta_inv",
    "toeplitz",
]
