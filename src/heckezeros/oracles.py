"""Independent brute-force verification backends.

These deliberately use different algorithms from the primary code paths
(Romberg quadrature vs closed forms, scan-and-subdivide vs the ITP root
solver) so that agreement between the two is evidence rather than tautology.

The quadrature oracle integrates ``f(t) e^{-zt}`` over the weight's support
by Romberg extrapolation of the nested trapezoid rule: each level halves the
step, evaluates the integrand only at the new midpoints, and adds one
Richardson row.  A level is accepted only once the step resolves the
oscillation of ``e^{-zt}`` (four nodes per period), so coarse rules whose
nodes all alias to one phase cannot "agree" on a wrong value.  The nodes do
not depend on ``z``, so the samples of ``f`` are memoized per weight for the
last ``_MEMO_WEIGHTS`` = 2 weights (``_samples``): checking one weight at
many points evaluates it once per node.  Levels 0.._COARSE (0..8) come from
one sampling of a coarse grid of 257 nodes, placed there from ``_nodes``;
each point forms its integrand on that grid with one exp and reads those
levels as strided views, which sum in the order of the level's own array,
so every value has the bits of the rule sampled level by level.  Each finer
level is sampled on its first read.  A weight's times and values are at
most 2**15 + 1 floats each (512 KiB together), so the memo holds at most
1 MiB, and keeps those weights alive until they are evicted.

The root oracle scans at a coarse step for the leftmost sign change, then
narrows that cell by 64-way subdivisions to 1e-12.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, NoRootError, OracleFailureError, positive


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

#: the Richardson denominators 4**j - 1, j = 1.._MAX_LEVEL
_RICHARDSON = tuple(4.0 ** j - 1.0 for j in range(1, _MAX_LEVEL + 1))

#: levels 0.._COARSE are read from one grid of 2**_COARSE + 1 nodes
_COARSE = 8

#: where each level 0.._COARSE lies in the coarse grid: both ends, then the
#: odd multiples of 2**(_COARSE - level)
_COARSE_AT = (slice(None, None, 2 ** _COARSE),) + tuple(
    slice(2 ** (_COARSE - level), None, 2 ** (_COARSE - level + 1))
    for level in range(1, _COARSE + 1))

#: the weights whose samples ``_samples`` keeps
_MEMO_WEIGHTS = 2


def _nodes(x0, level):
    """The nodes level ``level`` of the nested trapezoid rule on [0, x0] adds:
    both ends at level 0, the ``2**(level-1)`` new midpoints after that."""
    if level == 0:
        return np.array([0.0, x0])
    return (x0 * 0.5 ** level) * np.arange(1.0, 2.0 ** level, 2.0)


def _romberg(g, x0, abs_tol, h_max=math.inf):
    """Romberg integral over [0, x0] of the integrand ``g`` samples, or None
    past 2**15 panels.

    ``g(level)`` gives the integrand at ``_nodes(x0, level)``.  Level k halves
    the step to ``h = x0 / 2**k``, refines the trapezoid sum with the new
    midpoints only (``T_k = T_{k-1} / 2 + h * sum(new)``) and extends the
    Richardson row ``R[j] = R[j-1] + (R[j-1] - prev[j-1]) / (4**j - 1)``.
    It returns the diagonal ``R_k`` once ``|R_k - R_{k-1}| <= abs_tol +
    1e-12 |R_k|`` at a step ``h <= h_max``.  ``R_k`` is exact for
    polynomials of degree up to ``2k + 1``.
    """
    h = x0
    trap = 0.5 * h * g(0).sum()
    row = [trap]
    for level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        trap = 0.5 * trap + h * g(level).sum()
        new = [trap]
        for j in range(1, level + 1):
            new.append(new[-1] + (new[-1] - row[j - 1]) / _RICHARDSON[j - 1])
        if h <= h_max and abs(new[-1] - row[-1]) <= abs_tol + 1e-12 * abs(new[-1]):
            return new[-1]
        row = new
    return None


def _frozen(f, ts):
    """Read-only ``(ts, f(ts))``; ``f``'s values are copied, so its own
    arrays stay writable."""
    fs = np.array(f(ts))
    ts.flags.writeable = fs.flags.writeable = False
    return ts, fs


@functools.lru_cache(maxsize=_MEMO_WEIGHTS)
def _samples(f):
    """The samples of weight ``f``, memoized for the last ``_MEMO_WEIGHTS``
    weights: read-only ``(t, f(t))`` on the coarse grid, the nodes of levels
    0.._COARSE in order (each level's from ``_nodes``), and a dict that
    ``_fine`` fills with the finer levels' as they are first read."""
    ts = np.empty(2 ** _COARSE + 1)
    for level, at in enumerate(_COARSE_AT):
        ts[at] = _nodes(f.x0, level)
    return _frozen(f, ts) + ({},)


def _fine(f, level):
    """Read-only ``(t, f(t))`` at ``_nodes(f.x0, level)`` for a level past
    _COARSE, sampled on first read into ``_samples(f)``'s dict."""
    fine = _samples(f)[2]
    if level not in fine:
        fine.setdefault(level, _frozen(f, _nodes(f.x0, level)))
    return fine[level]


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
    target.  Past the cap it raises ``OracleFailureError``; a non-finite
    ``z`` raises ``DomainError`` before any sampling.

    The samples of ``f`` come from ``_samples`` and ``_fine``, so calls at
    many ``z`` for one weight evaluate ``f`` once per node.  The integrand
    is formed once on the coarse grid, and levels 0.._COARSE read it as
    strided views.  ``f`` is hashed by identity (``TrialFunction`` defines
    no ``__eq__``) and must not change its values after construction.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"quadrature needs a finite z, got z={z}")
    h_max = math.pi / (2.0 * abs(z.imag)) if z.imag else math.inf
    ts, fs, _ = _samples(f)
    coarse = fs * np.exp(-z * ts)

    def g(level):
        if level <= _COARSE:
            return coarse[_COARSE_AT[level]]
        ts, fs = _fine(f, level)
        return fs * np.exp(-z * ts)

    val = _romberg(g, f.x0, abs_tol, h_max)
    if val is None:
        raise OracleFailureError(
            f"Romberg quadrature did not converge for z={z} within 2^{_MAX_LEVEL} panels")
    return val


def romberg_selftest():
    """The diagonal entry ``R_3`` is exact for degree 7, so the rule
    returns int_0^1 t^7 dt = 1/8 at level 4; give its error."""
    return abs(_romberg(lambda level: _nodes(1.0, level) ** 7, 1.0, 1e-13) - 0.125)


def scan_root(h, lo, hi, step):
    """Leftmost sign change of ``h`` on [lo, hi], located by linear scan.

    ``h`` must accept NumPy arrays.  A coarse grid (step 1e-2, or a hundredth
    of the interval if smaller, never finer than ``step``) brackets the first
    change.  It is evaluated left to right in chunks of 64, 128, 256, ...
    points, each starting at the last point of the one before, and the scan
    stops at the first chunk with a change: the cell is the flat scan's, and
    a root near lo costs few points (one at 0.5 on [0, 60] takes the first
    64 of the grid's 6,001).  Then passes of 64 equal subcells each
    keep the leftmost subcell with a change, until the cell is at most 1e-12
    wide or stops shrinking (its ends are adjacent floats), and the cell
    midpoint is returned: one ``h`` call per pass, six after a coarse cell
    of 1e-2.  For continuous h this matches a flat scan at ``step`` followed
    by bisection whenever h does not change sign twice inside one coarse
    cell (true for the monotone solver functions this oracle checks).
    Non-finite bounds or a ``step`` that is not finite and > 0 raise
    ``InvalidParameterError``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError(f"scan bounds must be finite, got [{lo}, {hi}]")
    positive("scan step", step)
    if hi <= lo:
        raise NoRootError(f"empty bracket [{lo}, {hi}]")
    coarse = max(step, min(1e-2, (hi - lo) / 100.0))

    def first_change(xs):
        sign = np.sign(np.asarray(h(xs), dtype=float))
        idx = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
        if idx.size == 0:
            return None
        i = int(idx[0])
        return float(xs[i]), float(xs[i + 1])

    xs = np.arange(lo, hi + coarse, coarse)
    xs[-1] = min(xs[-1], hi)
    start, n = 0, 64
    while (cell := first_change(xs[start:start + n])) is None:
        if start + n >= xs.size:
            raise NoRootError(f"no sign change of oracle target on [{lo}, {hi}]")
        start, n = start + n - 1, 2 * n
    while cell[1] - cell[0] > 1e-12:
        sub = first_change(np.linspace(cell[0], cell[1], 65))
        if sub is None or sub == cell:
            break
        cell = sub
    return 0.5 * (cell[0] + cell[1])
