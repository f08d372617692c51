"""Exception hierarchy for the package.

Computation failures (no provable bound, violated side condition, failed
precondition) are distinct from usage errors (bad parameters) so that the CLI
can map them to exit codes.  ``positive`` and ``nonnegative`` write the two
input rules most parameters follow, and the one message that refuses them.
"""

import math
import numbers


class HeckeZerosError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(HeckeZerosError):
    """A constructor or solver parameter is outside its allowed range."""


class InvalidGeneratorError(InvalidParameterError):
    """An autocorrelation generator takes negative values on its support."""


class DomainError(HeckeZerosError):
    """A function argument lies outside its mathematical domain."""


class NoBoundError(HeckeZerosError):
    """The solver's bracketing function has no sign change.

    ``sign`` records whether the function stays positive on the bracket
    (no repulsion provable) or stays negative (degenerate / unbounded,
    flagged for review).
    """

    def __init__(self, message, sign=None):
        super().__init__(message)
        self.sign = sign


class SideConditionError(HeckeZerosError):
    """The side condition fails at every width, so no valid bound exists."""


class BoundUnavailableError(HeckeZerosError):
    """Zero-density preconditions fail, so the bound formula does not apply."""


class NoRootError(HeckeZerosError):
    """A scan oracle found no sign change in the requested bracket."""


class OracleFailureError(HeckeZerosError):
    """A verification oracle did not converge within its budget."""


class InfeasibleSearchError(HeckeZerosError):
    """A parameter search found no point satisfying the hard constraints."""


def positive(name, value):
    """Raise InvalidParameterError naming ``value`` unless it is a finite real > 0."""
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):   # NaN too
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")


def nonnegative(name, value):
    """Raise InvalidParameterError naming ``value`` unless it is a finite real >= 0."""
    if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):   # NaN too
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")
