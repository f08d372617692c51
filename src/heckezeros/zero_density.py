"""Counting characters with a low-lying zero: the density bound N(lambda).

For a rectangle of normalized height lambda and an assumed floor b on the
lowest width, a trial weight f yields

    N(lambda) <= (phi f0 + F(-b)) (F(-b) - (1/vt - 1) phi f0)
                 -----------------------------------------------
                 (F(lambda-b) - phi f0 / vt)^2 - phi f0 (phi f0 + F(-b)) / vt

(up to epsilon), valid when both preconditions hold: the bracketed transform
value exceeds phi f0 / vt, and the denominator is positive.  At vt = 3/4,
b = 0, phi = 1/4 this collapses to the familiar form with constants 1/3, 1/4
and 1/12.  One private evaluation (``_evaluate``) forms the bound's terms and
both preconditions, and every entry point reads it; ``mt_bound_from_values``
writes the collapsed form apart, as an independent reference.
"""

import math
from dataclasses import dataclass

from .errors import (BoundUnavailableError, InvalidParameterError, _shown, checked_power,
                     finite, nonnegative, positive, real)
from .dh import PHI

#: default vartheta, the least the lemmas allow
VARTHETA = 0.75


@dataclass(frozen=True)
class ZdQuery:
    """Inputs of one zero-density evaluation."""

    f: object
    lam: float
    b: float = 0.0
    vartheta: float = VARTHETA
    phi: float = PHI

    def __post_init__(self):
        check_inputs(self.lam, self.b, self.vartheta, self.phi)


def check_vartheta(vartheta):
    """Raise InvalidParameterError unless vartheta is a real number in [3/4, 1]."""
    if not (real(vartheta) and 0.75 <= vartheta <= 1.0):   # NaN too
        raise InvalidParameterError(f"vartheta must lie in [3/4, 1], got {_shown(vartheta)}")


def check_inputs(lam, b, vartheta, phi):
    """Raise InvalidParameterError unless (lam, b, vartheta, phi) is admissible."""
    check_vartheta(vartheta)
    # a rectangle of height 0 is allowed: the preconditions decide whether
    # the bound applies there
    nonnegative("lambda", lam)
    nonnegative("b", b)
    positive("phi", phi)


def _values(q):
    return q.f.f0, q.f.laplace_real(-q.b), q.f.laplace_real(q.lam - q.b)


def _evaluate(f0, F_minus_b, F_gap, vartheta, phi):
    """(cond1, cond2, num, den) of the bound from raw values (f(0), F(-b),
    F(lambda-b)): the two preconditions and the numerator and denominator.

    t = phi f0 / vt, phi f0 + F(-b) and the denominator are formed once.
    Precondition 2, (F(lambda-b) - t)^2 > t (phi f0 + F(-b)), is read as
    den > 0: in IEEE arithmetic a - b > 0 holds exactly where a > b.
    Raises InvalidParameterError where the square leaves the float range
    (``errors.checked_power``); ``**`` stays, as * would round some squares
    differently.
    """
    t = phi * f0 / vartheta
    s = phi * f0 + F_minus_b
    den = checked_power("F(lambda - b) - phi f0/vartheta", F_gap - t, 2) - t * s
    num = s * (F_minus_b - (1.0 / vartheta - 1.0) * phi * f0)
    return bool(F_gap > t), bool(den > 0.0), num, den


def bound_from_values(f0, F_minus_b, F_gap, vartheta, phi):
    """The general bound from raw values (f(0), F(-b), F(lambda-b)), whether
    or not the preconditions hold.  Raises InvalidParameterError unless the
    values are finite reals (``errors.finite``), and vartheta and phi are
    checked as in ``check_inputs``."""
    for name, v in (("f(0)", f0), ("F(-b)", F_minus_b), ("F(lambda-b)", F_gap)):
        finite(name, v)
    check_vartheta(vartheta)
    positive("phi", phi)
    _, _, num, den = _evaluate(f0, F_minus_b, F_gap, vartheta, phi)
    return num / den


def mt_bound_from_values(f0, F0, F_lam):
    """The specialized vt=3/4, b=0, phi=1/4 form, written with its own
    constants; InvalidParameterError unless the values are finite reals."""
    for name, v in (("f(0)", f0), ("F(0)", F0), ("F(lambda)", F_lam)):
        finite(name, v)
    num = (f0 / 4.0 + F0) * (F0 - f0 / 12.0)
    den = (F_lam - f0 / 3.0) ** 2 - f0 / 3.0 * (f0 / 4.0 + F0)
    return num / den


def bound_if_admissible(f0, F_minus_b, F_gap, vartheta, phi):
    """The bound from raw values, or None where a precondition fails.

    The density search scores each weight by it, from f(0) and the scalar
    kernel's F(-b) and F(lambda-b).
    """
    cond1, cond2, num, den = _evaluate(f0, F_minus_b, F_gap, vartheta, phi)
    return num / den if cond1 and cond2 else None


def zd_preconditions(q):
    """(cond1, cond2): transform-size and denominator-positivity conditions,
    as ``_evaluate`` reads them."""
    return _evaluate(*_values(q), q.vartheta, q.phi)[:2]


def n_lambda_bound(q):
    """The real-valued density bound; where a precondition fails, raises
    BoundUnavailableError naming both, from the same one evaluation."""
    c1, c2, num, den = _evaluate(*_values(q), q.vartheta, q.phi)
    if not (c1 and c2):
        raise BoundUnavailableError(
            f"density preconditions fail at lambda={q.lam}, b={q.b} "
            f"(cond1={c1}, cond2={c2}) for {q.f!r}")
    return num / den


def int_bound(bound):
    """Integer form of a bound value.

    The epsilon in the statement is arbitrary, so the integer claim is the
    floor of the value plus a 1e-6 guard against spurious increments from
    rounding right below an integer.
    """
    return int(math.floor(bound + 1e-6))


def n_lambda_int(q):
    """Integer form of the bound (``int_bound``)."""
    return int_bound(n_lambda_bound(q))


def recipe_theta(lam, b):
    """Tuning recipe theta-hat = 1.63 + 1.28 b - 4.35 lambda for table rows.

    The recipe parametrizes an external weight family; here it seeds the
    substitute-family search (support scale ~ 2 theta-hat / lambda).
    """
    return 1.63 + 1.28 * b - 4.35 * lam
