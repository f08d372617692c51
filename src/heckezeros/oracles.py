"""Independent brute-force verification backends.

These deliberately use different algorithms from the primary code paths
(Romberg quadrature vs closed forms, scan-then-bisect vs the ITP root solver)
so that agreement between the two is evidence rather than tautology.

The quadrature oracle integrates ``f(t) e^{-zt}`` over the weight's support
by Romberg extrapolation of the nested trapezoid rule: each level halves the
step, evaluates the integrand only at the new midpoints, and adds one
Richardson row.  A level is accepted only once the step resolves the
oscillation of ``e^{-zt}`` (four nodes per period), so coarse rules whose
nodes all alias to one phase cannot "agree" on a wrong value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRootError, OracleFailureError


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one grid check.

    For positivity checks ``worst_violation`` is the grid minimum and the
    check passes when it is >= -tolerance; for equality checks it is the
    largest absolute deviation and passes when <= tolerance.
    """

    check: str
    kind: str               # 'positivity' | 'equality'
    grid_size: int
    worst_violation: float
    location: tuple
    tolerance: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.check}: worst {self.worst_violation:.3e} "
                f"at {self.location} (grid {self.grid_size}, tol {self.tolerance:g})")


def positivity_report(check, values, locations, tolerance=1e-12):
    values = np.asarray(values, dtype=float)
    i = int(np.argmin(values))
    loc = locations[i] if locations is not None else (i,)
    return OracleReport(check, "positivity", values.size, float(values[i]),
                        tuple(np.atleast_1d(loc)), tolerance,
                        bool(values[i] >= -tolerance))


def equality_report(check, deviations, locations, tolerance):
    deviations = np.asarray(deviations, dtype=float)
    i = int(np.argmax(deviations))
    loc = locations[i] if locations is not None else (i,)
    return OracleReport(check, "equality", deviations.size, float(deviations[i]),
                        tuple(np.atleast_1d(loc)), tolerance,
                        bool(deviations[i] <= tolerance))


#: 2**_MAX_LEVEL trapezoid panels is the finest rule the quadrature tries
_MAX_LEVEL = 15


def _romberg(g, x0, abs_tol, h_max=math.inf):
    """Romberg integral of ``g`` over [0, x0], or None past 2**15 panels.

    ``g`` maps an array of nodes to an array of values.  Level k halves the
    step to ``h = x0 / 2**k``, refines the trapezoid sum with the new
    midpoints only (``T_k = T_{k-1} / 2 + h * sum(new)``) and extends the
    Richardson row ``R[j] = R[j-1] + (R[j-1] - prev[j-1]) / (4**j - 1)``.
    It returns the diagonal ``R_k`` once ``|R_k - R_{k-1}| <= abs_tol +
    1e-12 |R_k|`` at a step ``h <= h_max``.  ``R_k`` is exact for
    polynomials of degree up to ``2k + 1``.
    """
    h = x0
    trap = 0.5 * h * g(np.array([0.0, x0])).sum()
    row = [trap]
    for level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        trap = 0.5 * trap + h * g(h * np.arange(1.0, 2.0 ** level, 2.0)).sum()
        new = [trap]
        for j in range(1, level + 1):
            new.append(new[-1] + (new[-1] - row[j - 1]) / (4.0 ** j - 1.0))
        if h <= h_max and abs(new[-1] - row[-1]) <= abs_tol + 1e-12 * abs(new[-1]):
            return new[-1]
        row = new
    return None


def quadrature_laplace(f, z, abs_tol=1e-13):
    """F(z) by Romberg quadrature of ``f(t) e^{-zt}`` on [0, x0].

    The step halves, reusing every node already evaluated, until two
    successive diagonal entries agree to ``abs_tol`` (relative 1e-12 for
    large values) or the 2**15 panel cap is hit.  The integrand is analytic
    on the compact support, so the extrapolated rules converge fast.  No
    level is accepted before ``h |Im z| <= pi/2`` (four nodes per period of
    ``e^{-zt}``): coarser nodes can all sit at one phase, where two
    under-resolved rules agree on a wrong value.  The default 1e-13 target
    is attainable for |z| x0 up to a few hundred; beyond that pass a looser
    target.  Past the cap it raises ``OracleFailureError``.
    """
    z = complex(z)
    h_max = math.pi / (2.0 * abs(z.imag)) if z.imag else math.inf
    val = _romberg(lambda ts: f(ts) * np.exp(-z * ts), f.content.x0, abs_tol, h_max)
    if val is None:
        raise OracleFailureError(
            f"Romberg quadrature did not converge for z={z} within 2^{_MAX_LEVEL} panels")
    return val


def romberg_selftest():
    """The diagonal entry ``R_3`` is exact for degree 7, so the rule
    returns int_0^1 t^7 dt = 1/8 at level 4; give its error."""
    return abs(_romberg(lambda ts: ts ** 7, 1.0, 1e-13) - 0.125)


def scan_root(h, lo, hi, step):
    """Leftmost sign change of ``h`` on [lo, hi], located by linear scan.

    ``h`` must accept NumPy arrays.  A coarse pass (step 1e-2, or a hundredth
    of the interval if smaller, never finer than ``step``) brackets the first
    change, a fine pass at ``step`` pins it to one cell, and bisection polishes
    to 1e-12.  For continuous h this matches a flat scan at ``step`` whenever
    h does not change sign twice inside one coarse cell (true for the
    monotone solver functions this oracle checks).
    """
    if hi <= lo:
        raise NoRootError(f"empty bracket [{lo}, {hi}]")
    coarse = max(step, min(1e-2, (hi - lo) / 100.0))

    def first_change(a, b, dx):
        xs = np.arange(a, b + dx, dx)
        xs[-1] = min(xs[-1], b)
        vals = np.asarray(h(xs), dtype=float)
        sign = np.sign(vals)
        idx = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
        if idx.size == 0:
            return None
        i = int(idx[0])
        return xs[i], xs[i + 1]

    cell = first_change(lo, hi, coarse)
    if cell is None:
        raise NoRootError(f"no sign change of oracle target on [{lo}, {hi}]")
    if coarse > step:
        fine = first_change(cell[0], cell[1], step)
        if fine is not None:
            cell = fine
    a, b = float(cell[0]), float(cell[1])
    fa = float(h(np.array([a]))[0])
    for _ in range(200):
        if b - a <= 1e-12:
            break
        mid = 0.5 * (a + b)
        fm = float(h(np.array([mid]))[0])
        if fa * fm <= 0 and fm != 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)

