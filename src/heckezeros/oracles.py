"""Independent brute-force verification backends.

These deliberately use different algorithms from the primary code paths
(composite Simpson vs closed forms, scan-then-bisect vs the ITP root solver)
so that agreement between the two is evidence rather than tautology.
"""

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


def _simpson(vals, h):
    """Composite Simpson rule over an odd number of equally spaced values."""
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1::2].sum() + 2.0 * vals[2:-1:2].sum())


def quadrature_laplace(f, z, abs_tol=1e-13):
    """F(z) by composite Simpson on [0, x0], refined dyadically.

    The panel count doubles until two successive rules agree to ``abs_tol``
    (relative 1e-12 for large values) or the 2**15 cap is hit.  The
    integrand is smooth on the compact support, so convergence is quartic;
    oscillatory z just needs enough panels.  The default 1e-13 target is
    attainable for |z| x0 up to a few hundred; beyond that pass a looser
    target (error scales like (|z| x0 / panels)^4).
    """
    z = complex(z)
    x0 = f.content.x0

    def simpson(n):
        ts = np.linspace(0.0, x0, 2 * n + 1)
        return _simpson(f(ts) * np.exp(-z * ts), x0 / (2 * n))

    prev = simpson(1)
    for level in range(1, 16):
        cur = simpson(2 ** level)
        if abs(cur - prev) <= abs_tol + 1e-12 * abs(cur):
            return cur
        prev = cur
    raise OracleFailureError(
        f"Simpson rule did not converge for z={z} within 2^15 panels")


def simpson_selftest():
    """Composite Simpson is exact for cubics; check int_0^1 t^3 dt = 1/4."""
    return abs(_simpson(np.linspace(0.0, 1.0, 9) ** 3, 1.0 / 8.0) - 0.25)


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

