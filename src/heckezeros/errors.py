"""Exception hierarchy for the package.

Computation failures (no provable bound, violated side condition, failed
precondition) are distinct from usage errors (bad parameters) so that the CLI
can map them to exit codes.  ``finite``, ``positive`` and ``nonnegative``
write the three input rules most parameters follow, each with the one
message that refuses it; ``real`` and ``number`` tell a real number that a
float holds and a number that a complex holds from anything else;
``checked_power`` the refusal of a power past the float range,
``checked_divisor`` that of a power a caller divides by, which must not
underflow to 0 either, and ``no_bound`` the one report of a root-solved
bound that has no root.
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


#: the verdict on an h that stays negative or vanishes at both ends
_FLAGGED = " (degenerate / unbounded, flagged for review)"


def no_bound(subject, hi, inputs, hlo, hhi, proves="repulsion"):
    """The NoBoundError of a root solve of an increasing h on [0, hi] that
    gives no bound, from h(0) = hlo and h(hi) = hhi.

    ``subject`` opens the message and ``inputs`` (a string) names what h was
    built from.  A NaN end, or 0 at both ends, gives sign None; otherwise the
    sign is the one h keeps: 'positive' (no bound of the kind ``proves``
    names is provable) or 'negative' (degenerate, or the root lies past hi).
    The caller raises it.
    """
    where = f"[0, {hi}] for {inputs}"
    if hlo != hlo or hhi != hhi:
        return NoBoundError(f"{subject}: h is NaN at an end of {where}")
    if hlo == 0.0 and hhi == 0.0:
        return NoBoundError(f"{subject}: h is 0 at both ends of {where}{_FLAGGED}")
    if hlo > 0.0:
        return NoBoundError(f"{subject}: h stays positive on {where} (no {proves} provable)",
                            sign="positive")
    return NoBoundError(f"{subject}: h stays negative on {where}{_FLAGGED}", sign="negative")


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


def real(value):
    """Whether ``value`` is a real number that a float can hold: a
    ``numbers.Real`` that is not a bool and whose ``float()`` does not
    overflow, so a str, None, a complex, True or the int 10**400 is not.  A
    float is told at once, without the abstract class's check (about 0.5 us)."""
    return type(value) is float or _holds(value, numbers.Real, float)


def number(value):
    """Whether ``value`` is a number that a complex can hold: ``real``'s
    rule with ``numbers.Number`` and ``complex()``, so a str, bytes, None,
    True or the int 10**400 is not.  A float or a complex is told at once."""
    return type(value) in (float, complex) or _holds(value, numbers.Number, complex)


def _holds(value, kind, convert):
    """Whether ``value`` is a ``kind`` that is not a bool and whose
    ``convert()`` does not overflow."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        convert(value)
    except OverflowError:
        return False
    return True


def finite(name, value):
    """float(value); raises InvalidParameterError naming ``value`` unless it
    is a finite real."""
    if not (real(value) and -math.inf < value < math.inf):   # NaN too
        raise InvalidParameterError(f"{name} must be finite, got {_shown(value)}")
    return float(value)


def positive(name, value):
    """Raise InvalidParameterError naming ``value`` unless it is a finite real > 0."""
    if not (real(value) and 0 < value < math.inf):   # NaN too
        raise InvalidParameterError(f"{name} must be finite and > 0, got {_shown(value)}")


def nonnegative(name, value):
    """Raise InvalidParameterError naming ``value`` unless it is a finite real >= 0."""
    if not (real(value) and 0 <= value < math.inf):   # NaN too
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {_shown(value)}")


def checked_power(name, base, exponent, error=InvalidParameterError):
    """base ** exponent, or ``error`` naming ``name`` where Python's float **
    raises OverflowError: past the float range, where * would give inf."""
    try:
        return base ** exponent
    except OverflowError:
        raise error(f"{name} = {base} is too large: its power {exponent} overflows") from None


def checked_divisor(name, base, exponent, error=InvalidParameterError):
    """``checked_power`` of a base > 0 that the caller divides by, or
    ``error`` naming ``name`` also where the power underflows to 0, where
    Python's float / would raise ZeroDivisionError (and NumPy's give NaN)."""
    power = checked_power(name, base, exponent, error)
    if power == 0.0:
        raise error(f"{name} = {base} is too small: its power {exponent} underflows to 0")
    return power


def _shown(value):
    """repr of ``value``, a NumPy real scalar's as its Python value's (NumPy 2
    writes np.float64(-1.0) for -1.0)."""
    if isinstance(value, numbers.Real) and hasattr(value, "item"):
        value = value.item()
    return repr(value)
