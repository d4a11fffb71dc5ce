"""Exception types shared across the package.

Two families: bad inputs (rejected up front, CLI exit code 2) and
evaluation failures (valid inputs whose computation cannot be completed
as requested, CLI exit code 3).
"""


class InputError(ValueError):
    """Invalid input: bad discriminant, excluded field, level < 2, ..."""


class NotNegativeError(InputError):
    """Discriminant is >= 0."""


class NotCongruentError(InputError):
    """Discriminant is not 0 or 1 mod 4."""


class NotFundamentalError(InputError):
    """Discriminant fails the squarefree conditions of a field discriminant."""


class ExcludedFieldError(InputError):
    """d in {-3, -4}: the matrix-group index set would overcount there."""


class EvaluationError(RuntimeError):
    """A computation could not be completed at the requested settings."""


class PrecisionUnachievableError(EvaluationError):
    """The truncation index needed for the target precision exceeds the cap."""


class DegenerateValueError(EvaluationError):
    """A singular value is zero (underflow) or NaN at working precision."""


class SnapFailureError(EvaluationError):
    """Polynomial coefficients are too far from integers to snap."""

    def __init__(self, message, max_rounding_residual=None, max_imag_residual=None):
        super().__init__(message)
        self.max_rounding_residual = max_rounding_residual
        self.max_imag_residual = max_imag_residual
