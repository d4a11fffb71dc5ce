"""Singular values of Siegel functions over imaginary quadratic fields.

Enumerates Galois conjugates of g_{(0,1/N)}(theta)^{-12N/gcd(6,N)} via
explicit matrix actions, certifies numerically that the non-identity
conjugates are strictly smaller than the base value, and produces the
integer polynomial whose roots are the conjugates.
"""

from .errors import EvaluationError, InputError, SnapFailureError
from .exactmath import (
    QuadIrrational,
    context,
    to_complex,
)
from .normal_basis import (
    check_criterion,
    conjugates,
    minimal_polynomial,
)
from .quadforms import (
    QuadForm,
    principal_form,
    reduced_forms,
    theta,
    theta_of_form,
    validate_discriminant,
)
from .reciprocity import (
    FracVector,
    MatrixModN,
    act_vector,
    beta_local,
    beta_modN,
    conjugate_indices,
    w_group,
)
from .siegel_eval import power_exponent, siegel_power, siegel_ramachandra_invariant

__version__ = "0.1.0"

__all__ = [
    "EvaluationError",
    "FracVector",
    "InputError",
    "MatrixModN",
    "QuadForm",
    "QuadIrrational",
    "SnapFailureError",
    "act_vector",
    "beta_local",
    "beta_modN",
    "check_criterion",
    "conjugate_indices",
    "conjugates",
    "context",
    "minimal_polynomial",
    "power_exponent",
    "principal_form",
    "reduced_forms",
    "siegel_power",
    "siegel_ramachandra_invariant",
    "theta",
    "theta_of_form",
    "to_complex",
    "validate_discriminant",
    "w_group",
]
