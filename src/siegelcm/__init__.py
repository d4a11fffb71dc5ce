"""Singular values of Siegel functions over imaginary quadratic fields.

Enumerates Galois conjugates of g_{(0,1/N)}(theta)^{-12N/gcd(6,N)} via
explicit matrix actions, certifies numerically that the non-identity
conjugates are strictly smaller than the base value, and produces the
integer polynomial whose roots are the conjugates.
"""

from .errors import (
    DegenerateValueError,
    EvaluationError,
    ExcludedFieldError,
    InputError,
    NotCongruentError,
    NotFundamentalError,
    NotNegativeError,
    PrecisionUnachievableError,
    SnapFailureError,
)
from .exactmath import (
    QuadIrrational,
    agreement_bits,
    bernoulli2,
    context,
    rounded,
    to_complex,
)
from .normal_basis import (
    check_criterion,
    conjugates,
    least_certifying_power,
    minimal_polynomial,
    siegel_ramachandra_invariant,
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
from .siegel_eval import power_exponent, siegel_power

__version__ = "0.1.0"

__all__ = [
    "DegenerateValueError",
    "EvaluationError",
    "ExcludedFieldError",
    "FracVector",
    "InputError",
    "MatrixModN",
    "NotCongruentError",
    "NotFundamentalError",
    "NotNegativeError",
    "PrecisionUnachievableError",
    "QuadForm",
    "QuadIrrational",
    "SnapFailureError",
    "act_vector",
    "agreement_bits",
    "bernoulli2",
    "beta_local",
    "beta_modN",
    "check_criterion",
    "conjugate_indices",
    "conjugates",
    "context",
    "least_certifying_power",
    "minimal_polynomial",
    "power_exponent",
    "principal_form",
    "reduced_forms",
    "rounded",
    "siegel_power",
    "siegel_ramachandra_invariant",
    "theta",
    "theta_of_form",
    "to_complex",
    "validate_discriminant",
    "w_group",
]
