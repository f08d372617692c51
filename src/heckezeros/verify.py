"""Oracle-backed property suites.

Each suite returns a list of OracleReport; the CLI prints them and the test
suite asserts they all pass.  The oracles deliberately use different
algorithms from the primary paths (nested Clenshaw-Curtis quadrature vs
closed forms, a grid scan narrowed by 64-way subdivisions
(``oracles.scan_root``) vs the ITP solver and the quartic roots' Newton
inverse) so agreement is evidence.  A report locates its worst point by
plain Python numbers, so its line reads the same under any NumPy.
"""

import math

import numpy as np

from . import _kernels, dh, oracles, p4, tables, trial_functions, zero_density, zfr
from .errors import DomainError, InvalidParameterError
from .oracles import equality_report, positivity_report

_SEED = 20260808


def _sample_families():
    tf = trial_functions
    return [
        tf.triangle(2.0),
        tf.triangle(0.7),
        tf.autocorrelation(alpha=0.0, c0=1.0, c1=0.0, beta=0.0, s=1.0),
        tf.autocorrelation(alpha=0.5, c0=1.0, c1=0.0, beta=0.0, s=1.0),
        tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5),
        tf.autocorrelation(alpha=-0.3, c0=0.0, c1=1.0, beta=0.5, s=3.0),
    ]


def _z_grid():
    res = np.linspace(-3.0, 3.0, 10)
    ims = np.linspace(-10.0, 10.0, 20)
    return np.array([complex(a, b) for a in res for b in ims])


def _f2_bound(f):
    """A proved upper bound on sup |f''| over [0, s] for a coded weight.

    Over the folded pairs (c, g, a) of ``trial_functions._t_terms``, with
    x = s - t and E(x; a) = (e^{ax} - 1)/a,

        f''(t)  = sum Re c e^{gt} [g^2 E(x; a) + (a - 2g) e^{ax}],
        f'''(t) = sum Re c e^{gt} [g^3 E(x; a) + ((a - 2g)(g - a) - g^2) e^{ax}].

    Every t in [0, s] lies within h/2 of one of n = 2001 nodes spaced
    h = s/(n - 1), both ends included, so sup |f''| is at most the nodes'
    maximum of |f''| plus h/2 times a bound on |f'''|.  That bound is
    termwise, from
    |e^{gt}| <= e^{s max(0, Re g)}, |E(x; a)| <= x e^{x max(0, Re a)} and
    |e^{gt + ax}| <= e^{s max(Re g, Re a)} on [0, s].
    """
    s, folded = f.kernel_code()
    n = 2001
    ts = np.linspace(0.0, s, n)
    f2, f3 = 0.0, 0.0
    for c, g, a in trial_functions._t_terms(folded):
        f2 += (c * np.exp(g * ts) * (g ** 2 * _kernels.E(s - ts, a)
                                     + (a - 2.0 * g) * np.exp(a * (s - ts)))).real
        f3 += abs(c) * (abs(g) ** 3 * s * math.exp(s * (max(0.0, g.real) + max(0.0, a.real)))
                        + abs((a - 2.0 * g) * (g - a) - g ** 2) * math.exp(s * max(g.real, a.real)))
    return float(np.abs(f2).max()) + 0.5 * s / (n - 1) * f3


def _remainder_split(f, z, B):
    """(F_0(z), ok) for F(z) = f(0)/z + F_0(z) at a finite z with Re z > 0:
    ok tells whether |F_0(z)| <= (3 B x0 + 2 f(0)/x0)/|z|^2 + 1e-12, for
    B >= sup |f''|."""
    z = complex(z)
    if not (z.real > 0 and abs(z) < math.inf):   # NaN too
        raise DomainError(f"remainder split requires a finite z with Re z > 0, got {z}")
    F0 = f.laplace(z) - f.f0 / z
    return F0, bool(abs(F0) <= (3.0 * B * f.x0 + 2.0 * f.f0 / f.x0) / abs(z) ** 2 + 1e-12)


def suite_laplace():
    reports = [equality_report("quadrature self-test on int t^7",
                               [oracles.quadrature_selftest()], [(0.125,)], 1e-15)]
    zs = _z_grid()
    for f in _sample_families():
        tag = repr(f)
        closed = f.laplace(zs)
        quad = np.array([oracles.quadrature_laplace(f, z) for z in zs])
        devs = np.abs(closed - quad) / (1.0 + np.abs(closed))
        reports.append(equality_report(f"closed form vs quadrature: {tag}",
                                       devs, zs, 1e-10))
        ys, vals = trial_functions.half_plane_values(f)
        reports.append(positivity_report(f"Re F(iy) on the imaginary axis: {tag}",
                                         vals, ys, 1e-12))
        ts = np.linspace(-5.0, 10.0, 301)
        vals = f.laplace(ts).real
        reports.append(positivity_report(f"F positive on the real axis: {tag}",
                                         vals, ts, 0.0))
        reports.append(positivity_report(f"F nonincreasing on the real axis: {tag}",
                                         -(np.diff(vals)), ts[1:], 1e-12))
        grid_t = np.linspace(-1.0, f.x0 * 1.5, 301)
        fv = f(grid_t)
        reports.append(positivity_report(f"f non-negative: {tag}", fv, grid_t, 0.0))
        outside = fv[grid_t >= f.x0]
        reports.append(equality_report(f"f vanishes past its support: {tag}",
                                       np.abs(outside), None, 0.0))
        B = _f2_bound(f)
        pts = [complex(a, b) for a in np.linspace(0.25, 10.0, 8)
               for b in np.linspace(-20.0, 20.0, 9)]
        oks = [1.0 if _remainder_split(f, z, B)[1] else -1.0 for z in pts]
        reports.append(positivity_report(
            f"remainder bound |F - f(0)/z| <= A/|z|^2 on Re z > 0: {tag}",
            oks, pts, 0.0))
        # the reduced repulsion expression dominates the oscillatory one
        ys = np.linspace(-60.0, 60.0, 1201)
        for a, b in ((1.0, 0.5), (0.7, 1.3), (1.0, 1.0), (0.0, 1.0)):
            lhs = (f.laplace(-a + 1j * ys) - f.laplace(1j * ys)
                   - f.laplace(b - a + 1j * ys)).real
            bound = trial_functions.repel_reduce(f, a, b)
            reports.append(positivity_report(
                f"reduced form dominates oscillatory terms (a={a}, b={b}): {tag}",
                bound - lhs, ys, 1e-12))
    # F(-x) - F(b-x) nondecreasing in x and in b
    f = trial_functions.triangle(1.5)
    xs = np.linspace(0.0, 5.0, 200)
    for b in (0.0, 0.05, 0.3):
        d = (f.laplace(-xs) - f.laplace(b - xs)).real
        reports.append(positivity_report(
            f"F(-x) - F(b-x) nondecreasing in x (b={b})", np.diff(d), xs[1:], 1e-12))
    bs = np.linspace(0.0, 1.0, 100)
    for x in (0.5, 2.0):
        d = (f.laplace(-x) - f.laplace(bs - x)).real
        reports.append(positivity_report(
            f"F(-x) - F(b-x) nondecreasing in b (x={x})", np.diff(d), bs[1:], 1e-12))
    return reports


def suite_p4():
    rng = np.random.default_rng(_SEED)
    n = 10_000
    a = rng.uniform(0.05, 3.0, n)
    b = a + rng.uniform(0.0, 3.0, n)
    t = rng.uniform(-30.0, 30.0, n)
    ident = np.array([p4.re_p4_identity(ai, bi, ti) for ai, bi, ti in zip(a, b, t)])
    direct = p4.p4_eval(a / (b + 1j * t)).real
    devs = np.abs(ident - direct) / (1.0 + np.abs(direct))
    reports = [equality_report("closed real-part identity vs direct evaluation",
                               devs, list(zip(a, b, t)), 1e-12)]
    lead = (16.0 / 5.0) * (a * b) ** 4 / (b * b + t * t) ** 4
    reports.append(positivity_report("identity dominates its leading term",
                                     ident - lead, list(zip(a, b, t)), 1e-14))
    # admissibility: Re P(1/z) >= 0 on Re z >= 1
    x = rng.uniform(1.0, 20.0, n)
    y = rng.uniform(-50.0, 50.0, n)
    vals = p4.p4_eval(1.0 / (x + 1j * y)).real
    reports.append(positivity_report("admissibility grid on Re z >= 1",
                                     vals, list(zip(x, y)), 1e-12))
    return reports


def suite_positivity():
    rng = np.random.default_rng(_SEED + 1)
    reports = []
    zgrid = np.linspace(-40.0, 40.0, 2001)
    worst, arg = np.inf, None
    for _ in range(200):
        x = rng.uniform(1.0, 3.0)
        y = rng.uniform(1.0, 3.0)
        V = rng.uniform(0.0, 2.0)
        W = rng.uniform(0.0, 2.0)
        m = int(rng.integers(1, 5))
        if not p4.gm_guaranteed(V, W, m, x, y):
            continue
        g = p4.gm_check(V, W, m, x, y, zgrid)
        if g.min() < worst:
            worst, arg = float(g.min()), (V, W, m, x, y)
    reports.append(positivity_report("three-term grid bound under its sufficient "
                                     "condition", [worst], [arg], 1e-12))
    worst, arg = np.inf, None
    for _ in range(200):
        aa = rng.uniform(0.2, 2.0)
        bb = aa + rng.uniform(0.0, 1.5)
        cc = bb + rng.uniform(0.0, 1.5)
        A = rng.uniform(0.1, 2.0)
        # draw (B, C) until the sufficient condition holds
        B = rng.uniform(0.0, 3.0)
        C = max(0.0, (A / aa ** 4 - B / bb ** 4) * cc ** 4) + rng.uniform(0.0, 1.0)
        q = p4.PositivityQuery(A, B, C, aa, bb, cc)
        res = p4.pm_positivity(q)
        if not res.guaranteed:
            continue
        if res.min_over_t < worst:
            worst, arg = res.min_over_t, (A, B, C, aa, bb, cc)
    reports.append(positivity_report("quartic combination grid minimum under its "
                                     "sufficient condition", [worst], [arg], 1e-12))
    # the two discarded combinations of the medium-width solver at a bundled row
    lam, J, b, x = 1.316, 0.8704, 0.1227, 0.4665
    qa = p4.PositivityQuery(2 * J, 2 * J, J * J + 1.0, lam, lam + b, lam + x)
    ra = p4.pm_positivity(qa)
    qb = p4.PositivityQuery(0.5, 0.5, 2 * J, lam, lam + b, lam + x)
    rb = p4.pm_positivity(qb)
    reports.append(positivity_report("discarded combination (quadratic slot) at a "
                                     "bundled medium row", [ra.min_over_t], [qa], 1e-12))
    reports.append(positivity_report("discarded combination (halved slot) at a "
                                     "bundled medium row", [rb.min_over_t], [qb], 1e-12))
    ok_a = p4.gm_guaranteed(J * J + 1.0, 2 * J, 4, (lam + x) / lam, (lam + b) / lam)
    reports.append(positivity_report("sufficient condition holds at the bundled row",
                                     [1.0 if (ok_a and ra.guaranteed and rb.guaranteed)
                                      else -1.0], None, 0.0))
    # cosine expansion coefficients of both bundled quadruples are non-negative
    for quad, *_ in zfr.POLYNOMIALS.values():
        cs = zfr.expand_trig_square_product(*quad)
        reports.append(positivity_report(f"expansion coefficients non-negative "
                                         f"{quad}", cs, None, 0.0))
        th = np.linspace(0.0, 2 * np.pi, 1000)
        series = sum(c * np.cos(k * th) for k, c in enumerate(cs))
        direct = ((quad[0] + quad[1] * np.cos(th)) ** 2
                  * (quad[2] + quad[3] * np.cos(th)) ** 2)
        reports.append(equality_report(f"expansion matches the squared product "
                                       f"{quad}", np.abs(series - direct)
                                       / (1 + np.abs(direct)), th, 1e-10))
    return reports


def suite_roots():
    rng = np.random.default_rng(_SEED + 2)
    reports = []
    # quartic Newton roots (``_kernels._p4_root``) vs scan oracle on random polynomial instances
    worst, arg = 0.0, None
    cases = [c for c in dh.POLY_CASES]
    for _ in range(20):
        name = cases[int(rng.integers(0, len(cases)))]
        b = float(rng.uniform(0.05, 0.4))
        lam = float(rng.uniform(0.8, 2.8))
        J = float(rng.uniform(0.4, 1.2))
        try:
            res = dh.solve_poly(name, b, lam, J)
        except dh.NoBoundError:
            continue
        h = dh.poly_h(name, b, lam, J)
        scanned = oracles.scan_root(h, 0.0, res.root + 1.0, 1e-6)
        dev = abs(scanned - res.root)
        if arg is None or dev > worst:
            worst, arg = dev, (name, b, lam, J)
        reports.append(equality_report(
            f"poly root bracketing h(x -+ 1e-6) at {name} b={b:.3f}",
            [max(float(h(res.root - 1e-6)), 0.0),
             max(-float(h(res.root + 1e-6)), 0.0)], None, 0.0))
    reports.append(equality_report("quartic Newton root vs 1e-6 scan oracle on "
                                   "random polynomial instances", [worst], [arg], 2e-6))
    # smoothed solver vs scan
    f = trial_functions.triangle(2.5)
    res = dh.solve_smoothed("sz-lp-quadratic", f, 0.01)
    h = dh.smoothed_h("sz-lp-quadratic", f, 0.01)
    scanned = oracles.scan_root(h, 0.01, dh.HI, 1e-6)
    reports.append(equality_report("smoothed ITP root vs scan oracle",
                                   [abs(scanned - res.lambda_star)], None, 2e-6))
    # residuals across every bundled polynomial row
    worst_res = 0.0
    for key in ("T3:quadratic", "T3:principal", "T4", "T5", "T9", "T10"):
        t = tables.load_table(key)
        for r in t.rows:
            res = dh.solve_poly(t.case_name, r.b, r.lam, r.J)
            worst_res = max(worst_res, res.residual)
    reports.append(equality_report("relative root residual over all bundled "
                                   "polynomial rows", [worst_res], None, 1e-9))
    # zero-free-region roots vs scan oracle
    for case, lam in (("order234", 0.9421), ("principal", 1.291)):
        res = zfr.zfr_solve(case, lam)
        h = zfr.zfr_h(case, lam)
        scanned = oracles.scan_root(h, 0.0, 5.0, 1e-6)
        reports.append(equality_report(f"zero-free-region root vs scan ({case})",
                                       [abs(scanned - res.root)], None, 2e-6))
        reports.append(equality_report(f"zero-free-region residual ({case})",
                                       [res.residual], None, 1e-10))
    # monotonicity of the bound in the width hypothesis, data and solver
    for key in ("T2:quadratic", "T2:principal", "T3:quadratic", "T3:principal",
                "T4", "T5", "T6", "T7:nonprincipal", "T7:principal",
                "T8:nonprincipal", "T8:chi2-principal-real", "T9", "T10"):
        t = tables.load_table(key)
        reports.append(positivity_report(
            f"bundled bound column strictly decreasing in width: {key}",
            [1.0 if tables.monotonicity_check(t) else -1.0], None, 0.0))
    bs = np.linspace(0.05, 0.3, 26)
    vals = [dh.solve_poly("cc-lp-nonprincipal", float(b), 1.2, 0.8).lambda_star
            for b in bs]
    reports.append(positivity_report("solver bound nonincreasing in width at "
                                     "fixed parameters", -np.diff(vals), bs[1:], 1e-12))
    # inverse consistency of the small-width closed form, in log space
    worst = 0.0
    for lam1 in (1e-12, 1e-8, 1e-4):
        for psi, c1 in ((1.0, 2), (0.5, 2), (1.0, 1), (0.5, 1)):
            lp = dh.very_small_inverse(psi, lam1)
            fwd = dh.very_small_dh(psi, lp, c1=c1)
            expect = lam1 * lp / (2.0 * c1 * math.e)
            worst = max(worst, abs(math.log(fwd) - math.log(expect)))
    reports.append(equality_report("small-width forward/inverse consistency "
                                   "(log space)", [worst], None, 1e-12))
    return reports


def suite_zero_density():
    rng = np.random.default_rng(_SEED + 3)
    worst = 0.0
    for _ in range(50):
        f0 = rng.uniform(0.5, 5.0)
        Fmb = rng.uniform(f0, 10 * f0)
        Fgap = rng.uniform(f0 / 3.0 + 1e-3, Fmb)
        general = zero_density.bound_from_values(f0, Fmb, Fgap, 0.75, 0.25)
        special = zero_density.mt_bound_from_values(f0, Fmb, Fgap)
        worst = max(worst, abs(general - special) / (1.0 + abs(special)))
    reports = [equality_report("general density formula reduces to the "
                               "specialized one at vt=3/4, b=0", [worst], None, 1e-12)]
    f = trial_functions.triangle(8.0)
    lams = np.linspace(0.05, 0.4, 30)
    vals = []
    for lam in lams:
        q = zero_density.ZdQuery(f, float(lam))
        c1, c2 = zero_density.zd_preconditions(q)
        den_pos = ((f.laplace_real(lam) - f.f0 / 3.0) ** 2
                   - f.f0 / 3.0 * (f.f0 / 4.0 + f.laplace_real(0.0))) > 0
        if c2 != den_pos:
            vals.append(-1.0)
        elif c1 and c2:
            vals.append(zero_density.n_lambda_bound(q))
    reports.append(positivity_report("denominator positive exactly when the "
                                     "second precondition holds", vals, None, 0.0))
    reports.append(positivity_report("density bound nondecreasing in the height",
                                     np.diff(vals), None, 1e-9))
    return reports


SUITES = {
    "laplace": suite_laplace,
    "p4": suite_p4,
    "positivity": suite_positivity,
    "roots": suite_roots,
    "zero-density": suite_zero_density,
}


def run_suite(name):
    """Run one suite ('all' chains every suite); returns the report list.
    An unknown suite raises InvalidParameterError."""
    if name == "all":
        return [report for suite in SUITES.values() for report in suite()]
    if isinstance(name, str) and name in SUITES:   # a list would raise TypeError here
        return SUITES[name]()
    raise InvalidParameterError(f"unknown suite {name!r}; available: {sorted(SUITES)} + ['all']")
