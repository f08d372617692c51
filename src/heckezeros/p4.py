"""The fixed admissible quartic and its positivity machinery.

All polynomial-method solvers rest on the quartic

    P(X) = X + X^2 + (4/5) X^3 + (2/5) X^4,

which is admissible: non-negative coefficients, P(0) = 0, and
Re P(1/z) >= 0 on the half-plane Re z >= 1.  The closed-form real-part
identity and the two positivity lemmas below are what lets a solver discard
unknown zero terms while keeping an inequality valid.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, checked_divisor, checked_power, nonnegative, positive

#: Coefficients of degrees 1..4.
P4_COEFFS = (1.0, 1.0, 0.8, 0.4)


#: The quartic at a real or complex point (or array), shared with the kernels.
p4_eval = _kernels._p4

#: an argument's power, or DomainError naming the argument past the float range
_power = functools.partial(checked_power, error=DomainError)
#: the same of a power divided by, or DomainError where it underflows to 0
_divisor = functools.partial(checked_divisor, error=DomainError)


def re_p4_identity(a, b, t):
    """Re P(a/(b+it)) in closed form, valid for finite 0 < a <= b.

    With alpha = a/b <= 1, s = 1/(1 + (t/b)^2) in (0, 1] and u = 1 - s, it
    splits into a strictly positive leading term (16/5) alpha^4 s^4, which is
    (16/5)(ab)^4/(b^2+t^2)^4, plus a non-negative remainder proportional to
    1 - alpha,

        alpha (1 - alpha) s (5 u^2 + 2 (5 + 5 alpha - alpha^2) u s
                             + (5 + 10 alpha + 14 alpha^2) s^2) / 5,

    which is the source of the lower bound used by the positivity lemma.
    ``t`` may be an array.  Written in alpha and s, no power leaves the
    float range where the value is in it, as (ab)^4 and (b^2 + t^2)^4 did
    for a, b or t beyond about 1e77 or below about 1e-77.  Where (t/b)^2
    overflows, s and the value are below the smallest normal float, and the
    value is 0.
    """
    if not (0 < a <= b < math.inf):
        raise DomainError(f"require finite 0 < a <= b, got a={a}, b={b}")
    alpha = a / b
    with np.errstate(over="ignore"):
        tau2 = (np.asarray(t, dtype=float) / b) ** 2
    s = 1.0 / (1.0 + tau2)
    u = 1.0 - s
    q = 5.0 * u * u + 2.0 * (5.0 + 5.0 * alpha - alpha * alpha) * u * s \
        + (5.0 + 10.0 * alpha + 14.0 * alpha * alpha) * s * s
    out = (16.0 / 5.0) * alpha ** 4 * s ** 4 + alpha * (1.0 - alpha) * s * q / 5.0
    return out if out.ndim else float(out)


def _check_gm(V, W, m, x, y, z=0.0):
    """Raise DomainError unless x, y are finite and >= 1, m is finite and
    > 0, V and W are finite, the lemma's domain, and z (a float or a float
    array) holds no NaN; an infinite z is the limit 0 of each term."""
    if not (1.0 <= x < math.inf and 1.0 <= y < math.inf):   # NaN too
        raise DomainError(f"require finite x, y >= 1, got x={x}, y={y}")
    # an infinite m makes x^m / (x^2 + z^2)^m inf / inf; at m <= 0 the
    # sufficient condition no longer implies G_m >= 0
    if not 0.0 < m < math.inf:   # NaN too
        raise DomainError(f"require finite m > 0, got m={m}")
    if not (math.isfinite(V) and math.isfinite(W)):
        raise DomainError(f"require finite V, W, got V={V}, W={W}")
    if np.isnan(z).any():
        raise DomainError(f"require z that is not NaN, got z={z}")


def gm_guaranteed(V, W, m, x, y):
    """Sufficient condition V/x^m + W/y^m >= 1 for grid positivity, for
    finite V, W, finite x, y >= 1 and finite m > 0 (else DomainError),
    where ``gm_check``'s lemma holds."""
    _check_gm(V, W, m, x, y)
    return V / _power("x", x, m) + W / _power("y", y, m) >= 1.0


def gm_check(V, W, m, x, y, z):
    """G_m(x,y,z) = V x^m/(x^2+z^2)^m + W y^m/(y^2+z^2)^m - 1/(1+z^2)^m.

    Non-negative for all real z whenever x, y >= 1, m > 0 and
    V/x^m + W/y^m >= 1.  x, y >= 1, m > 0, V and W must be finite and ``z``,
    which may be an array, must hold no NaN (else DomainError).
    Where z^2 or a denominator's power leaves the float range, it is inf and
    its term the limit 0, with no warning: gm_check(1, 1, 1000, 1.5, 1.5, 0)
    is -1.0, and gm_check(1, 1, 4, 1.5, 1.5, 1e200), 9e-1600, is 0.0.  Where
    x^2 or V x^m leaves it, the term is V / (x + z^2/x)^m, the same value
    formed without that intermediate (likewise for y and W).
    """
    z = np.asarray(z, dtype=float)
    _check_gm(V, W, m, x, y, z)
    with np.errstate(over="ignore"):   # inf, and a term of 0, past the float range
        z2 = z * z
        out = (_gm_term(V, "x", x, m, z2) + _gm_term(W, "y", y, m, z2)
               - 1.0 / (1.0 + z2) ** m)
    return out if out.ndim else float(out)


def _gm_term(V, name, x, m, z2):
    """V x^m / (x^2 + z^2)^m, or V / (x + z^2/x)^m where V x^m or x^2 is
    past the float range and the first form would be inf / inf."""
    top = V * _power(name, x, m)
    if math.isinf(top) or math.isinf(x * x):
        return V / (x + z2 / x) ** m
    return top / (x * x + z2) ** m


@dataclass(frozen=True)
class PositivityQuery:
    """Coefficients and abscissae of a three-term quartic combination."""

    A: float
    B: float
    C: float
    a: float
    b: float
    c: float

    def __post_init__(self):
        positive("A", self.A)
        nonnegative("B", self.B)
        nonnegative("C", self.C)
        if not (0 < self.a <= self.b <= self.c < math.inf):   # NaN too
            raise DomainError(
                f"require finite 0 < a <= b <= c, got a={self.a}, b={self.b}, c={self.c}")


@dataclass(frozen=True)
class PositivityResult:
    guaranteed: bool
    min_over_t: float
    argmin_t: float


def pm_positivity(q):
    """Check the quartic positivity combination on a symmetric t grid.

    ``guaranteed`` is the sufficient condition C/c^4 + B/b^4 >= A/a^4; the
    empirical grid minimum is reported either way so callers can distinguish
    "guaranteed by the lemma" from "numerically positive but unproven".  The
    grid has 4001 points on [-50 a, 50 a]; outside it every term is O(1/t)
    with the same sign structure, so the minimum is interior.  Raises
    DomainError, before the grid, where a^4, b^4 or c^4 overflows or
    underflows to 0.
    """
    guaranteed = bool(q.C / _divisor("c", q.c, 4) + q.B / _divisor("b", q.b, 4)
                      >= q.A / _divisor("a", q.a, 4))
    ts = np.linspace(-50.0 * q.a, 50.0 * q.a, 4001)
    mn, arg = _kernels.p4_combo_min(q.A, q.B, q.C, q.a, q.b, q.c, ts)
    return PositivityResult(guaranteed, float(mn), float(arg))
