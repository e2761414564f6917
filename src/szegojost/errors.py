"""Exception types shared across the package.

Every error raised on a documented failure path derives from
:class:`SzegojostError`, so callers can catch one base class.  Warnings that
accompany otherwise-usable results derive from :class:`SzegojostWarning`.
"""

__all__ = [
    "SzegojostError",
    "SzegojostWarning",
    "OutOfRangeError",
    "PoleError",
    "DomainError",
    "InvalidParameterError",
    "SzegoConditionError",
    "PreconditionError",
    "DegenerateMeasureError",
    "AliasingError",
    "NumericalDegeneracyError",
    "IllConditionedError",
    "ConvergenceWarning",
]


class SzegojostError(Exception):
    """Base class for all package errors."""


class SzegojostWarning(UserWarning):
    """Base class for all package warnings."""


class OutOfRangeError(SzegojostError, IndexError):
    """A coefficient beyond the stored range was requested from a truncated
    sequence.  ``index`` names the first missing entry."""

    def __init__(self, index: int, what: str = "coefficient"):
        self.index = index
        super().__init__(f"{what} at index {index} is past the stored range")


class PoleError(SzegojostError, ZeroDivisionError):
    """Evaluation was requested at (or too close to) a pole.  ``z`` carries
    the offending point."""

    def __init__(self, z, context: str = "evaluation"):
        self.z = z
        super().__init__(f"{context} hit a pole at z={z}")


class DomainError(SzegojostError, ValueError):
    """The argument lies outside the domain where the formula is valid."""


class InvalidParameterError(SzegojostError, ValueError):
    """Input coefficients violate a structural constraint (positivity,
    modulus bound, realness, shape)."""


class SzegoConditionError(SzegojostError, ValueError):
    """log(weight) is not integrable, so the outer function does not exist."""


class PreconditionError(SzegojostError, ValueError):
    """A formula-specific precondition failed (wrong tail type, missing
    structure, unsupported combination)."""


class DegenerateMeasureError(SzegojostError, ArithmeticError):
    """The measure supports too few points for the requested order; the
    moment matrix is rank deficient."""

    def __init__(self, order: int, detail: str = ""):
        self.order = order
        msg = f"measure is degenerate at orthogonalization step {order}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class AliasingError(SzegojostError, ValueError):
    """A discrete average used too few sample points to resolve the
    requested frequency content."""


class NumericalDegeneracyError(SzegojostError, ArithmeticError):
    """An intermediate quantity lost all significant digits (for example a
    squared off-diagonal entry collapsing to zero or below)."""


class IllConditionedError(SzegojostError, ArithmeticError):
    """A linear solve was abandoned because the system is numerically
    singular.  ``condition_number`` records the estimate."""

    def __init__(self, condition_number: float, context: str = "linear system"):
        self.condition_number = condition_number
        super().__init__(
            f"{context} is ill conditioned (cond ~ {condition_number:.3e})"
        )


class ConvergenceWarning(SzegojostWarning):
    """A truncated input left the result visibly unconverged; the returned
    object carries a note saying so."""
