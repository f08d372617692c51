"""Independent brute-force verification backends.

These deliberately use different algorithms from the primary code paths
(Clenshaw-Curtis quadrature vs closed forms, scan-and-subdivide vs the ITP
root solver) so that agreement between the two is evidence rather than
tautology.

The quadrature oracle integrates ``f(t) e^{-zt}`` over the weight's support
by the nested Clenshaw-Curtis rule: level ``n`` (16, 32, ..., 4096) has the
``n + 1`` nodes ``t_k = x0 (1 - cos(pi k / n))/2`` and the weights of the
classical cosine sum, cached per level by ``_rule``.  The integrand is
entire on [0, x0], where the rule converges geometrically (Trefethen, SIAM
Review 50, 2008).  Level ``2n`` holds level ``n``'s nodes at even ``k``;
kept in nested order (level 16's nodes, then those each finer level adds)
every level is a prefix of the next.  A level is accepted only once it
resolves the oscillation of ``e^{-zt}`` (``n >= |Im z| x0``), so coarse
rules whose nodes alias cannot "agree" on a wrong value.  The nodes do not
depend on ``z``, so the samples of ``f`` are memoized per weight for the
last ``_MEMO_WEIGHTS`` = 2 weights (``_samples``): checking one weight at
many points evaluates it once per node.  The nodes come in blocks: the
shared block of the 129 nodes of levels 16 to 128, where the points the
tests, ``verify`` and the benchmark check all converge, then the nodes each
finer level adds.  A weight's first read samples the shared block in one
call of ``f``, and a finer level its added nodes on its first read: one
call in place of one per level saves the fixed cost of a call of ``f``,
most of its cost at 65 nodes.  A point forms its integrand over a block
with one exp and one multiply, and the weighted terms of the levels the
block completes with one multiply by their stacked weights (``_stacked``);
each level sums its own row.  So a point that converges by level 128
takes three array operations and one sum per level it reads, where a pass
per level took an exp, two multiplies and a sum at each.  A weight's times
and values are at most 4,097 floats each (64 KiB together), and the memo
keeps those weights alive until they are evicted.

The root oracle scans at a coarse step for the leftmost sign change, then
narrows that cell by 64-way subdivisions to 1e-12, each pass's 65 points
formed from a fixed index row with ``np.linspace``'s bits
(``_subdivision``).
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import (DomainError, InvalidParameterError, NoRootError, OracleFailureError,
                     _shown, nonnegative, number, positive, real)


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
    """The report of ``values >= -tolerance``, located by ``locations[i]``
    (a tuple, or one value), or ``(i,)`` for None.  Its NumPy scalars become
    plain Python numbers and nothing else is converted, so a location that
    mixes a name with numbers keeps both.  The tolerance must be finite and
    >= 0, and the values not empty (``InvalidParameterError`` naming the
    check)."""
    nonnegative("tolerance", tolerance)
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InvalidParameterError(f"check {check!r} has no values to report on")
    i = int(np.argmin(values))
    loc = locations[i] if locations is not None else (i,)
    loc = loc if isinstance(loc, tuple) else (loc,)
    return OracleReport(check, "positivity", values.size, float(values[i]),
                        tuple(v.item() if isinstance(v, np.generic) else v for v in loc),
                        tolerance, bool(values[i] >= -tolerance))


def equality_report(check, deviations, locations, tolerance):
    """The report of ``deviations <= tolerance``: the positivity report of
    the negated deviations, with its worst value negated back."""
    report = positivity_report(check, -np.asarray(deviations, dtype=float), locations,
                               tolerance)
    return replace(report, kind="equality", worst_violation=-report.worst_violation)


#: the coarsest and the finest level of the nested rule
_FIRST, _TOP = 16, 4096

#: the weights whose samples ``_samples`` keeps
_MEMO_WEIGHTS = 2

#: the level whose nodes a weight's first quadrature samples in one call of
#: f, the shared block of levels 16 to 128; every point the tests, ``verify``
#: and the benchmark check converges by it (at most 129 nodes)
_SHARED = 128


def _block(n):
    """The slice of the nodes, in nested order, that block ``n`` holds: the
    shared block's 129 nodes of levels 16 to 128, or the odd k a finer level
    adds."""
    return slice(0 if n == _SHARED else n // 2 + 1, n + 1)


@functools.cache
def _rule(n):
    """Level ``n`` of the nested Clenshaw-Curtis rule on [0, 1], read-only:
    the indices ``k`` of its nodes in nested order, the nodes
    ``(1 - cos(pi k / n))/2`` and their weights.

    The nested order is level ``n/2``'s ``k`` doubled, then the odd ``k``
    level ``n`` adds, so each level's nodes are a prefix of the next
    level's, bit for bit (``pi (2k) / (2n)`` is ``pi k / n``).  The weights
    are the classical cosine sums at ``theta = pi k / n``,
    ``(1 - sum_{j=1}^{n/2-1} 2 cos(2 j theta)/(4 j^2 - 1)
    - cos(n theta)/(n^2 - 1)) / n``, and ``1/(2 (n^2 - 1))`` at both ends
    (Waldvogel, BIT 46, 2006); the rule is exact for degree ``n``.
    """
    k = (np.arange(n + 1.0) if n == _FIRST
         else np.concatenate((2.0 * _rule(n // 2)[0], np.arange(1.0, n, 2.0))))
    theta = np.pi * k / n
    w = (1.0 - np.cos(n * theta) / (n * n - 1.0)) / n
    for j in range(1, n // 2):
        w -= 2.0 / ((4.0 * j * j - 1.0) * n) * np.cos(2.0 * j * theta)
    w[[0, _FIRST]] = 0.5 / (n * n - 1.0)
    return _frozen(k, 0.5 * (1.0 - np.cos(theta)), w)


@functools.cache
def _stacked(n):
    """The levels whose sums block ``n`` completes (16, 32, 64 and 128 for
    the shared block, ``n`` alone past it) and their weights as the rows of
    one read-only array over the nodes up to block ``n``'s, each row zero
    past its level's nodes."""
    if n > _SHARED:
        return (n,), _rule(n)[2][None]
    # 16, 32, 64, 128: (128 // 16).bit_length() = 4 levels
    levels = tuple(_FIRST << i for i in range((_SHARED // _FIRST).bit_length()))
    w = np.zeros((len(levels), n + 1))
    for row, m in zip(w, levels):
        row[:m + 1] = _rule(m)[2]
    return levels, _frozen(w)[0]


def _frozen(*arrays):
    """``arrays``, made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=_MEMO_WEIGHTS)
def _samples(f):
    """The samples of weight ``f``, memoized for the last ``_MEMO_WEIGHTS``
    weights: a dict from each block read so far (128 for the shared block,
    then each finer level) to read-only ``(t, f(t))`` at the nodes it holds
    (``_block``), which ``quadrature_laplace`` fills."""
    return {}


def quadrature_laplace(f, z, abs_tol=1e-13):
    """F(z) by nested Clenshaw-Curtis quadrature of ``f(t) e^{-zt}`` on
    [0, x0].

    The level doubles from 16 panels, reusing every node already evaluated,
    until two successive levels agree to ``abs_tol`` (relative 1e-12 for
    large values); the finer one is returned.  No level ``n`` is accepted
    before ``n >= |Im z| x0``: coarser nodes can sit at a few phases of
    ``e^{-zt}``, where two under-resolved rules agree on a wrong value.
    The range is ``|Im z| x0 <= 4096``, which the finest level resolves,
    and ``-Re z x0 <= _kernels.EXP_MAX``, past which ``e^{-zt}``
    overflows.  Outside it ``OracleFailureError`` is raised before any
    sampling; inside it, it is raised where levels 2048 and 4096 still
    disagree.  The default 1e-13
    target is met over all of ``|Im z| x0 <= 4000`` on the triangle and on
    autocorrelation weights; the tests, ``verify`` and the benchmark ask
    for at most 2,000.  A ``z`` that is not a finite number (a str, None, a
    bool, NaN or inf, or an int past the float range) raises
    ``DomainError``, and an ``abs_tol`` that is not finite and >= 0
    ``InvalidParameterError``, before any sampling.

    Level ``n`` gives ``x0 sum_k w_k f(t_k) e^{-z t_k}`` over its nodes in
    nested order.  The nodes come in blocks: the shared block of the 129
    nodes of levels 16 to 128, then the nodes each finer level adds.  A
    point forms its integrand over a block with one exp and one multiply,
    and the weighted terms of the levels the block completes with one
    multiply by their stacked weights (``_stacked``); each level then sums
    its own row.  A finer level's integrand at the nodes it adds joins the
    integrand formed so far.  So a point that converges by level 128, as
    every point of the tests, ``verify`` and the benchmark does, takes one
    exp and two multiplies, then a sum per level it reads.  The first read
    of ``f`` samples the shared block in one call, and a finer level
    samples the nodes it adds on its first read, into ``_samples(f)``; so
    calls at many ``z`` for one weight evaluate ``f`` once per node.  ``f``
    and the products are evaluated elementwise and each level's row is
    summed alone, so every value has the bits of the rule sampled afresh at
    every level.  ``f`` is hashed by identity (``TrialFunction`` defines no
    ``__eq__``) and must not change its values after construction.
    """
    nonnegative("abs_tol", abs_tol)
    if not number(z):
        raise DomainError(f"quadrature needs a number z, got z={_shown(z)}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"quadrature needs a finite z, got z={z}")
    x0 = f.x0
    n_min = abs(z.imag) * x0
    if n_min > _TOP or -z.real * x0 > _kernels.EXP_MAX:
        raise OracleFailureError(
            f"quadrature on [0, {x0}] needs |Im z| x0 <= {_TOP} and -Re z x0 <= "
            f"{_kernels.EXP_MAX}, got z={z}")
    blocks, g, prev, n = _samples(f), None, None, _SHARED
    while n <= _TOP:
        if n not in blocks:
            ts = x0 * _rule(n)[1][_block(n)]
            blocks[n] = _frozen(ts, np.array(f(ts)))
        ts, fs = blocks[n]
        added = fs * np.exp(-z * ts)
        g = added if g is None else np.concatenate((g, added))
        levels, w = _stacked(n)
        # a pairwise sum per row: np.dot would page in BLAS code, 128 KB of
        # resident memory
        for m, terms in zip(levels, w * g):
            q = x0 * terms[:m + 1].sum()
            if prev is not None and m >= n_min and abs(q - prev) <= abs_tol + 1e-12 * abs(q):
                return q
            prev = q
        n *= 2
    raise OracleFailureError(
        f"Clenshaw-Curtis quadrature did not converge for z={z} within {_TOP + 1} nodes")


def quadrature_selftest():
    """Level 16 is exact for degree 16, so the quadrature of the weight
    ``t^7`` on [0, 1] at z = 0 returns int_0^1 t^7 dt = 1/8 at level 32;
    give its error.  The weight takes one slot of the sample memo."""
    def septic(t):
        return t ** 7

    septic.x0 = 1.0
    return abs(quadrature_laplace(septic, 0.0) - 0.125)


#: the indices 0..64 of a subdivision's points
_SUBCELLS = _frozen(np.arange(65.0))[0]


def _subdivision(a, b):
    """The 65 points of [a, b]'s subdivision into 64 equal subcells, with
    the bits of ``np.linspace(a, b, 65)``: ``k ((b - a)/64) + a`` at the
    indices k, then b at the end, in two NumPy operations where linspace
    takes about fifteen.  linspace takes another route only where
    ``(b - a)/64`` is 0, which no cell ``scan_root`` subdivides is (each is
    wider than 1e-12)."""
    xs = _SUBCELLS * ((b - a) / 64.0) + a
    xs[-1] = b
    return xs


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
    of 1e-2.  A pass's 65 points are ``np.linspace``'s, formed by
    ``_subdivision`` from a fixed index row in two NumPy operations.  For
    continuous h this matches a flat scan at ``step`` followed by bisection
    whenever h does not change sign twice inside one coarse cell (true for
    the monotone solver functions this oracle checks).
    Each chunk's points are formed from their indices, with the bits
    ``np.arange(lo, hi + coarse, coarse)`` gives them and the last point
    clamped to hi, so no more of the grid exists than the chunk.
    Bounds that are not finite reals, a ``step`` that is not finite and
    > 0, or a bracket of more than 2**24 coarse cells raise
    ``InvalidParameterError`` before any ``h`` call.
    """
    if not all(real(v) and math.isfinite(v) for v in (lo, hi)):
        raise InvalidParameterError(f"scan bounds must be finite, got [{lo}, {hi}]")
    positive("scan step", step)
    if hi <= lo:
        raise NoRootError(f"empty bracket [{lo}, {hi}]")
    coarse = max(step, min(1e-2, (hi - lo) / 100.0))
    if (hi - lo) / coarse > 2 ** 24:
        raise InvalidParameterError(
            f"scan bracket [{lo}, {hi}] spans more than 2**24 cells of {coarse}")
    size = math.ceil(((hi + coarse) - lo) / coarse)
    delta = (lo + coarse) - lo

    def grid(start, stop):
        xs = lo + np.arange(start, stop) * delta
        if start == 0:
            xs[0] = lo      # keeps a -0.0
        if stop == size:
            xs[-1] = min(xs[-1], hi)
        return xs

    def first_change(xs):
        sign = np.sign(np.asarray(h(xs), dtype=float))
        idx = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
        if idx.size == 0:
            return None
        i = int(idx[0])
        return float(xs[i]), float(xs[i + 1])

    start, n = 0, 64
    while (cell := first_change(grid(start, min(start + n, size)))) is None:
        if start + n >= size:
            raise NoRootError(f"no sign change of oracle target on [{lo}, {hi}]")
        start, n = start + n - 1, 2 * n
    while cell[1] - cell[0] > 1e-12:
        sub = first_change(_subdivision(*cell))
        if sub is None or sub == cell:
            break
        cell = sub
    return 0.5 * (cell[0] + cell[1])
