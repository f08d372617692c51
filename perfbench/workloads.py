"""Seeded inputs, item solvers and reference rules of the four workloads.

Every workload is a closed loop with one caller: the next item starts when the
previous one has returned.  An item is one table row, one density cell, or one
weight checked against the oracles.  The seed picks the items and the library
receives only those inputs.  Rows are drawn evenly from width bands of each
table (tiny to medium widths), and weights evenly from three kinds (triangle,
plain exponential generator, cosine-modulated generator) with support, decay
and frequency spread evenly over their ranges.  The bands are narrow (one to
three rows) so that every seed sees nearly the same mix of row costs and
listed bounds, which keeps the figures comparable across seeds.  The density
cells are a fixed, evenly spaced subset of the grid; their seed sets only the
order.

The number of items depends only on ``--seconds``: each workload's
``items_per_second`` was measured once on a 2-CPU machine (NumPy backend) and
is frozen, so the same seed and seconds give the same inputs on any machine.
An untraced run solves the items once, in about ``--seconds`` plus a quarter
more for the host-speed calibration (see ``run.py``).
An item that raises a library error or returns no bound counts as failed.

Seed ``HELD_OUT_SEED`` was never run while the benchmark was tuned; keep it
for confirming a claimed gain on a seed the change was not written against.
"""

import dataclasses
import math
import zlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from heckezeros import (dh, optimizer, oracles, p4, tables, trial_functions,
                        zero_density, zfr, _kernels)

HELD_OUT_SEED = 7919

#: search budget handed to ``tables.regress`` / ``regress_zero_density``
SMOOTHED_BUDGET = 120
DENSITY_BUDGET = 60

#: oracle tolerances, the same as ``heckezeros.verify`` uses
QUAD_TOL = 1e-10
HALF_PLANE_TOL = 1e-12
SCAN_TOL = 2e-6

#: published zero-free-region optima (lambda, width) at phi = 1/4
ZFR_LISTED = {"order234": (0.9421, 0.1227), "principal": (1.291, 0.0875)}

#: smoothed case whose root the oracle workload checks; its 'cc' shape has a
#: sign change exactly when F(0) >= f(0)/2.  Drawn weights keep alpha >= -0.5,
#: where F(0)/f(0) - 1/2 stays above 0.06 on a grid of the whole box; faster
#: decay with the 1.5 cosine profile falls below it (at alpha = -1, s = 2.5)
ORACLE_CASE = "cc-l2-chi2-principal-real"
#: fixed transform points for the quadrature check (|z| x0 stays below ~50)
ORACLE_ZS = np.array([complex(a, b) for a in (-2.0, 0.5, 2.5) for b in (-7.0, 1.0, 9.0)
                      if (a, b) != (0.5, 1.0)])


@dataclass(frozen=True)
class Outcome:
    """What one item returned: its bound, the bound ratio and the verdict."""

    value: float          # the returned bound (lambda*, N or root), for the digest
    ratio: float          # bound ratio, higher is better
    ok: bool              # meets the workload's reference rule
    failed: bool = False  # raised or returned no bound

    def digest_line(self, key):
        return f"{key}|{self.value!r}|{int(self.ok)}|{int(self.failed)}"


FAILED = Outcome(math.nan, math.nan, False, True)


@dataclass(frozen=True)
class Item:
    key: str
    solve: object         # () -> Outcome


def _stratified(rng, strata, n):
    """``n`` draws (rounded up) spread evenly over ``strata``, in seeded order.

    Each stratum is walked in a fresh seeded permutation and reshuffled once
    used up, so an entry repeats only after its whole stratum was drawn.
    """
    per = max(1, -(-n // len(strata)))
    out = []
    for stratum in strata:
        pool = []
        for _ in range(per):
            if not pool:
                pool = [int(i) for i in rng.permutation(len(stratum))]
            out.append(stratum[pool.pop()])
    return [out[int(i)] for i in rng.permutation(len(out))]


def _width_bands(entries, bands):
    """Split entries sorted by width into ``bands`` contiguous bands."""
    cuts = [round(len(entries) * k / bands) for k in range(bands + 1)]
    return [entries[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


# ---------------------------------------------------------------------------
# smoothed-regress
# ---------------------------------------------------------------------------

SMOOTHED_TABLES = ("T2:principal", "T8:chi2-principal-real")


def _smoothed_item(table, i):
    # a one-row table: the harness warm-starts each row from the previous one,
    # so a row alone gives a result that does not depend on which rows the
    # seed picked, and its time is one item's time
    row = table.rows[i]

    def solve():
        rep = tables.regress(dataclasses.replace(table, rows=(row,)), budget=SMOOTHED_BUDGET)
        r = rep.rows[0]
        if not math.isfinite(r.computed):
            return FAILED
        return Outcome(r.computed, r.ratio, r.in_band)

    return Item(f"{table.key}@{row.b!r}", solve)


def smoothed_items(rng, n):
    strata = []
    for key in SMOOTHED_TABLES:
        t = tables.load_table(key)
        strata += _width_bands([(t, i) for i in range(len(t.rows))], 18)
    return [_smoothed_item(t, i) for t, i in _stratified(rng, strata, n)]


# ---------------------------------------------------------------------------
# density-grid
# ---------------------------------------------------------------------------

DENSITY_TABLE = "T1"


def _density_item(table, i, j):
    # a one-cell grid, so that the cell's result and time are its own
    lam, b = table.lambdas[i], table.b_values[j]
    cell = tables.ZdTable(table.id, table.caption, (lam,), (b,), ((table.cells[i][j],),))

    def solve():
        r = tables.regress_zero_density(cell, budget=DENSITY_BUDGET).rows[0]
        if not math.isfinite(r.computed):
            return FAILED
        return Outcome(r.computed, r.listed / r.computed, r.in_band)

    return Item(f"{table.key}@{lam!r},{b!r}", solve)


def density_items(rng, n):
    """``n`` (at most 113) of the cells with a finite listed N, evenly spaced
    over the grid in row order, independent of the seed; in seeded order.

    A single cell's listed/computed ratio ranges from 0.75 to 26, so seeded
    subsets moved ``bound_ratio_mean`` by 1-4% from seed to seed; a subset
    fixed by ``n`` keeps it fixed.  'inf' cells are left out, since no bound
    found is the expected answer there.
    """
    t = tables.load_table(DENSITY_TABLE)
    cells = [(t, i, j) for i in range(len(t.lambdas)) for j in range(len(t.b_values))
             if t.cells[i][j] is not None and math.isfinite(t.cells[i][j])]
    n = min(n, len(cells))
    picked = [cells[k * len(cells) // n] for k in range(n)]
    return [_density_item(*picked[int(k)]) for k in rng.permutation(n)]


# ---------------------------------------------------------------------------
# poly-search
# ---------------------------------------------------------------------------

POLY_TABLES = ("T3:quadratic", "T3:principal", "T4", "T5", "T9", "T10")


def _printed_ulp_tol(raw):
    """2e-4, or half a unit in the last printed digit if that is larger."""
    text = raw.strip()
    decimals = len(text.split(".")[1]) if "." in text and "e" not in text.lower() else 0
    return max(2e-4, 0.51 * 10.0 ** (-decimals))


def _poly_item(table, i):
    row = table.rows[i]
    tol = _printed_ulp_tol(row.raw["lambda_star"])

    def solve():
        res = optimizer.maximize_bound(optimizer.SearchSpec(table.case_name, row.b))
        ok = res.lambda_star >= row.lambda_star - tol and res.side_ok
        return Outcome(res.lambda_star, res.lambda_star / row.lambda_star, ok)

    return Item(f"{table.key}@{row.b!r}", solve)


def _zfr_item(case):
    lam_listed, width_listed = ZFR_LISTED[case]

    def solve():
        lam, width = zfr.zfr_optimize(case)
        ok = width >= width_listed - 2e-4 and abs(lam - lam_listed) <= 0.01
        return Outcome(float(width), width / width_listed, ok)

    return Item(f"zfr:{case}", solve)


def poly_items(rng, n):
    strata = []
    for key in POLY_TABLES:
        t = tables.load_table(key)
        strata += _width_bands([("row", t, i) for i in range(len(t.rows))], 3)
    strata.append([("zfr", case, None) for case in ZFR_LISTED])
    return [_poly_item(a, b) if kind == "row" else _zfr_item(a)
            for kind, a, b in _stratified(rng, strata, n)]


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

WEIGHT_KINDS = ("triangle", "plain", "cosine")
#: cosine frequency beta as a multiple of pi / s
COSINE_MULTS = (0.5, 1.0, 1.5)


def _weight_params(kind, s, alpha, mult):
    if kind == "triangle":
        return {"x0": s}
    if kind == "plain":
        return {"alpha": alpha, "c0": 1.0, "c1": 0.0, "beta": 0.0, "s": s}
    return {"alpha": alpha, "c0": 1.0, "c1": 1.0, "beta": mult * math.pi / s, "s": s}


def _oracle_item(params, b):
    family = "triangle" if "x0" in params else "autocorrelation"

    def solve():
        f = getattr(trial_functions, family)(**params)
        closed = f.laplace(ORACLE_ZS)
        quad = np.array([oracles.quadrature_laplace(f, z) for z in ORACLE_ZS])
        quad_dev = float(np.max(np.abs(closed - quad) / (1.0 + np.abs(closed))))
        half_plane = trial_functions.condition2_min(f)
        root = dh.solve_smoothed(ORACLE_CASE, f, b).lambda_star
        scanned = oracles.scan_root(dh.smoothed_h(ORACLE_CASE, f, b), 0.0, 60.0, 1e-6)
        ok = (quad_dev <= QUAD_TOL and half_plane >= -HALF_PLANE_TOL
              and abs(scanned - root) <= SCAN_TOL)
        return Outcome(root, root / scanned, ok)

    return Item(f"{family}{sorted(params.items())}@{b!r}", solve)


def _spread(rng, slots, lo, hi):
    """One uniform draw in each given slot of ``len(slots)`` equal slots of
    [lo, hi], in the order of ``slots``."""
    m = len(slots)
    return [round(lo + (hi - lo) * (int(k) + float(rng.uniform())) / m, 6) for k in slots]


def _golden_slots(m):
    """A fixed permutation of range(m): the ranks of k / golden ratio mod 1.

    Paired with range(m) it places m points evenly over a square (a
    Fibonacci lattice), whatever the seed.
    """
    return [int(r) for r in np.argsort(np.argsort(np.arange(m) * 0.6180339887498949 % 1.0))]


def oracle_items(rng, n):
    # a weight's cost is set by its kind (a cosine weight costs ten to twenty
    # triangles), then by its support s and its decay alpha.  Within each kind
    # the (s, alpha) points lie on a fixed lattice over the box, one seeded
    # draw inside each lattice cell, and the cosine frequencies cycle along s;
    # the seed sets the draws and the order.  Independent shuffles of s and
    # alpha paired them differently on every seed and moved the median
    # weight's cost by 11-15% from seed to seed.
    kinds = _stratified(rng, [[k] for k in WEIGHT_KINDS], n)
    draws = {}
    for kind in WEIGHT_KINDS:
        m = kinds.count(kind)
        points = list(zip(_spread(rng, range(m), 2.5, 4.5),
                          _spread(rng, _golden_slots(m), -0.5, 1.0),
                          [COSINE_MULTS[k % len(COSINE_MULTS)] for k in range(m)]))
        draws[kind] = [points[int(k)] for k in rng.permutation(m)]
    out = []
    bs = _spread(rng, rng.permutation(len(kinds)), 0.1227, 0.6068)
    for kind, b in zip(kinds, bs):
        out.append(_oracle_item(_weight_params(kind, *draws[kind].pop()), b))
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_items: object      # (rng, n) -> [Item]
    items_per_second: float
    min_ok_frac: float      # the harness's own pass rule for the whole set


WORKLOADS = {w.name: w for w in (
    Workload("smoothed-regress",
             "tables.regress on T2:principal and T8 rows (sz and cc shapes, down to "
             "b=1e-5): autocorrelation builds and the smoothed root kernel dominate",
             smoothed_items, 3.6, tables.SMOOTHED_FRACTION),
    Workload("density-grid",
             "regress_zero_density on T1 cells at budget 60: scalar Laplace transforms and "
             "family builds, no root solve, so a root-solver change predicts none",
             density_items, 4.5, 1.0),
    Workload("poly-search",
             "maximize_bound on T3/T4/T5/T9/T10 rows and zfr_optimize: the quartic root "
             "kernels and golden-section search, no trial weight, so a transform change predicts none",
             poly_items, 13.5, 1.0),
    Workload("oracle-check",
             "seeded weights checked by Simpson quadrature, the half-plane condition and a "
             "scanned root: the oracles and the array transform path, unseen elsewhere",
             oracle_items, 5.3, 1.0),
)}


def make_items(workload, seed, seconds):
    """The seeded items; their number is ``seconds * items_per_second`` rounded
    up to a whole number of draws per stratum (density-grid: exactly)."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    return workload.make_items(rng, max(1, round(seconds * workload.items_per_second)))


# ---------------------------------------------------------------------------
# layer probe and microbenchmarks
# ---------------------------------------------------------------------------

def layer_probe():
    """One small call into every traced function, the same on every workload.

    Traced runs end with it, so every layer row has a measured time even on
    workloads that never call that layer.
    """
    f = trial_functions.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5)
    f.laplace(0.3)
    f.laplace(np.linspace(-2.0, 2.0, 64))
    f(np.linspace(0.0, 2.5, 64))
    dh.solve_smoothed(ORACLE_CASE, f, 0.2)
    dh.solve_poly("cc-lp-nonprincipal", 0.1227, 1.097, 0.7788)
    zfr.zfr_solve("order234", 0.9421)
    zero_density.n_lambda_bound(zero_density.ZdQuery(trial_functions.triangle(8.0), 0.2))
    optimizer.maximize_bound(optimizer.SearchSpec("cc-lp-nonprincipal", 0.1227))
    t8 = tables.load_table("T8:chi2-principal-real")
    tables.regress(dataclasses.replace(t8, rows=t8.rows[:1]), budget=SMOOTHED_BUDGET)
    t1 = tables.load_table("T1")
    tables.regress_zero_density(tables.ZdTable(t1.id, t1.caption, (0.2,), (0.0,), ((4,),)),
                                budget=DENSITY_BUDGET)
    oracles.quadrature_laplace(f, 0.5 + 2.0j)
    oracles.scan_root(dh.smoothed_h(ORACLE_CASE, f, 0.2), 0.0, 60.0, 1e-6)


def _micro_cases():
    tri = trial_functions.triangle(2.2)
    cos_fam = trial_functions.autocorrelation(alpha=0.7, c0=1.0, c1=1.0, beta=1.4, s=2.2)
    ts = np.linspace(-50.0, 50.0, 4001)
    q = p4.PositivityQuery(2 * 0.8704, 2 * 0.8704, 0.8704 ** 2 + 1, 1.316, 1.4387, 1.7825)
    return {
        "p4_grid_min": (lambda: _kernels.p4_combo_min(q.A, q.B, q.C, q.a, q.b, q.c, ts), 50),
        "smoothed_triangle": (lambda: dh.solve_smoothed("sz-lp-quadratic", tri, 0.01), 500),
        "smoothed_cosine": (lambda: dh.solve_smoothed("cc-lp-principal-real", cos_fam, 0.3443), 200),
        "poly_solve": (lambda: dh.solve_poly("cc-lp-nonprincipal", 0.1227, 1.097, 0.7788), 2000),
    }


MICRO_NAMES = ("p4_grid_min", "smoothed_triangle", "smoothed_cosine", "poly_solve")


def micro_rows():
    """Mean microseconds per call of four fixed kernel calls, untraced."""
    out = {}
    for name, (fn, reps) in _micro_cases().items():
        fn()
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        out[name] = (perf_counter() - t0) / reps * 1e6
    return out
