"""The package's two exception families; each message names the rule that fired.

``InputError`` (CLI exit code 2) rejects an argument outside the domain: a
discriminant that is not an int, negative, 0 or 1 mod 4 and fundamental
(``Discriminant``), one passed as anything but a ``Discriminant``, such as
a bare int (``reduced_forms``, ``principal_form`` and all that call them),
d in {-3, -4} (``w_group``), a level that is not an int >= 2
(``exactmath.require_level``, which ``siegel_eval``'s ``power_exponent``
and ``siegel_ramachandra_invariant`` apply too), a precision that is not an
int >= 2 (``exactmath.context``), a value outside the invariants of
``QuadIrrational`` or ``QuadForm``, a field of any value type that is not
an int, a bool or an integral float included (``exactmath.require_integers``),
a ``MatrixModN`` that is not invertible mod N, a zero ``FracVector`` mod
Z^2 (either takes any representative and stores its class mod +-1),
mismatched moduli, an empty record list, one that mixes levels,
discriminants or precisions, or one that is not the whole conjugate set of
its d and N, each (W class, form, vector) triple once (``check_criterion``,
``minimal_polynomial``), records that do not start with the base value
(``check_criterion``), a tau that rounds to a point with an
infinite or NaN part or off the upper half-plane, a ``siegel_power``
vector (v, w) that is not a pair of ints or is 0 mod N, a guard that is
not an int >= 0, the other checks of ``normal_basis``, and ``cli.run``'s
two rules: a precision of at least 64 bits, and a level for every
subcommand but forms.

``EvaluationError`` (CLI exit code 3) reports valid inputs whose computation
cannot be completed: a truncation index above its cap (``siegel_power``,
``siegel_ramachandra_invariant``), a zero, NaN or infinite conjugate
(``check_criterion``, ``minimal_polynomial``),
a conjugate pair that disagrees beyond its error bound and coefficients
that do not snap (``minimal_polynomial``, the latter a ``SnapFailureError``)
and a failed certificate (the CLI's ``minpoly``).
"""


class InputError(ValueError):
    """Invalid input: bad discriminant, excluded field, level < 2, ..."""


class EvaluationError(RuntimeError):
    """A computation could not be completed at the requested settings."""


class SnapFailureError(EvaluationError):
    """Polynomial coefficients are too far from integers to snap; the expansion is real,
    so ``max_imag_residual`` keeps its default 0.0."""

    def __init__(self, message, max_rounding_residual=None, max_imag_residual=0.0):
        super().__init__(message)
        self.max_rounding_residual = max_rounding_residual
        self.max_imag_residual = max_imag_residual
