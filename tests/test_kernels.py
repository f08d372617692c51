"""Scalar kernels against the vectorized reference paths, and the root solver's
contract and agreement with plain bisection."""

import cmath
import dataclasses
import functools
import math
import types

import numpy as np
import pytest

from heckezeros import _kernels, dh, optimizer, p4, tables, trial_functions as tf, zfr
from heckezeros.errors import NoBoundError


def test_backend_reports():
    assert _kernels.backend() == "numpy"


def _exponents(f):
    """The support endpoint and the g_j and g_k of every folded pair and of
    its conjugate pair."""
    x0, folded = f.kernel_code()
    return (x0, [g for p in folded for g in (p[1], p[1].conjugate())],
            [g for p in folded for g in (p[2], p[2].conjugate())])


def _real_points(f):
    """A grid, 0, both sides of each series switch, and moderate negatives."""
    x0, gj, gk = _exponents(f)
    edge = _kernels.SMALL_W / x0
    pts = list(np.linspace(-8.0, 8.0, 161)) + [0.0, -0.25, -3.0, -20.0 / x0]
    pts += [c * (1.0 + d) for c in (edge, -edge) for d in (-1e-6, 1e-6)]
    # pair_near takes a pair term over where |g_j + r| x0 or |g_k - r| x0 is below 1e-2
    for centre in [-g.real for g in gj] + [g.real for g in gk]:
        pts += [centre + d * edge for d in (0.0, -0.5, 0.5, -0.999, 0.999, -1.001, 1.001, -3.0, 3.0)]
    return pts


#: the scalar kernel's folded Python arithmetic against the array path; its
#: worst case at _real_points is 5.7e-14, next to a series switch
SCALAR_REL = 2e-13

SCALAR_WEIGHTS = (
    tf.triangle(2.0), tf.triangle(0.7), tf.triangle(14.0),
    tf.autocorrelation(alpha=0.5, s=1.0),
    tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5),
    tf.autocorrelation(alpha=-0.3, c0=0.0, c1=1.0, beta=0.5, s=3.0),
    tf.autocorrelation(alpha=1.5, c0=1.0, c1=1.0, beta=0.3, s=9.0),
)


def test_scalar_transform_matches_vectorized_path():
    # Python and NumPy complex arithmetic differ in the last bits, and the
    # scalar kernel sums folded pairs, so the two agree to a stated bound
    for f in SCALAR_WEIGHTS:
        rs = _real_points(f)
        vector = f.laplace(np.array(rs)).real
        for r, v in zip(rs, vector):
            for scalar in (_kernels.f_real_scalar(f.kernel_code(), float(r)), f.laplace(r)):
                assert complex(scalar).imag == 0.0
                assert abs(complex(scalar).real - v) <= SCALAR_REL * abs(v), (f, r)


def test_scalar_transform_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for f in SCALAR_WEIGHTS:
        x0, gj, _ = _exponents(f)
        # the pair closed forms divide by g_j + r; stay off their poles
        poles = [-g.real for g in gj if g.imag == 0.0] if f.family == "autocorrelation" else []
        rs = [r for r in _real_points(f) if min((abs(r - p) for p in poles), default=1.0) >= 1e-3]
        with mpmath.workdps(50):
            for r in rs:
                got = _kernels.f_real_scalar(f.kernel_code(), float(r))
                want = _mp_reference(f, float(r), mpmath).real
                # the direct forms just above the switch lose up to 4.3e-12
                assert abs(got - want) <= 2e-11 * abs(want), (f, r)


class _CountedExp:
    """NumPy, with the shape of each ``exp`` argument recorded."""

    def __init__(self, shapes):
        self.shapes = shapes

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        self.shapes.append(np.shape(x))
        return np.exp(x)


@pytest.mark.parametrize("params, off_axis, folded", [
    ({"alpha": -0.8, "c0": 1.0, "c1": 0.9, "beta": 2.0, "s": 2.5}, 9, 5),   # cosine
    ({"alpha": -0.3, "c0": 0.0, "c1": 1.0, "beta": 0.5, "s": 3.0}, 4, 2),   # c0 = 0
    ({"alpha": 0.5, "s": 1.0}, 1, 1),                                       # plain
])
def test_conjugate_pairs_fold_to_one_exp_each(params, off_axis, folded, monkeypatch):
    """The code keeps one pair of each conjugate pair.  At a real point F
    takes one exp, and f_array one array exp, per folded pair; off the real
    axis f_array also evaluates each dropped pair's term, stacked with the
    kept one's, so it evaluates off_axis pair terms in all."""
    f = tf.autocorrelation(**params)
    x0, fold = f.kernel_code()
    assert len(fold) == folded
    # doubled coefficients: the folded ones still sum to (sum_j c_j)^2
    c_sum = params.get("c0", 1.0) + params.get("c1", 0.0)
    assert sum(p[0] for p in fold) == pytest.approx(c_sum ** 2, rel=1e-15)
    calls = []
    exp = _kernels.cmath.exp
    monkeypatch.setattr(_kernels, "cmath",
                        types.SimpleNamespace(exp=lambda w: calls.append(w) or exp(w)))
    # r = 0.37 is off every series branch of these weights
    assert all(abs(g + 0.37) * x0 >= 0.1 and abs(h - 0.37) * x0 >= 0.1
               for _, g, h, *_ in fold)
    _kernels.f_real_scalar(f.kernel_code(), 0.37)
    assert len(calls) == folded
    # the shape of each w = (g_k - z) x0 that f_array exponentiates, one per
    # pair term
    shapes = []
    monkeypatch.setattr(_kernels, "np", _CountedExp(shapes))
    f.laplace(np.linspace(-2.0, 2.0, 7))
    f.laplace(0.37 + 0j)       # a complex scalar on the real axis
    assert shapes == [(7,)] * folded + [(1,)] * folded
    shapes.clear()
    f.laplace(np.array([0.37 + 1j, -0.5 - 2j, 3j]))
    assert len(shapes) == folded
    assert shapes.count((3,)) + 2 * shapes.count((2, 3)) == off_axis


@pytest.mark.parametrize("params, n_far", [
    ({"alpha": -0.8, "c0": 1.0, "c1": 0.9, "beta": 2.0, "s": 2.5}, 2),   # cosine
    ({"alpha": -0.3, "c0": 0.0, "c1": 1.0, "beta": 0.5, "s": 3.0}, 2),   # c0 = 0
    ({"alpha": 0.5, "c0": 1.0, "c1": 1.0, "beta": 0.003, "s": 3.0}, 0),  # beta s < SMALL_W
    ({"alpha": 0.5, "s": 1.0}, 0),                                       # plain
])
def test_far_pairs_skip_the_series_tests(params, n_far):
    """A pair whose exponents both sit SMALL_W / x0 off the real axis skips the
    series tests, and F keeps the branches of the array path there: at the
    centres where an unflagged pair would switch, the two still agree."""
    f = tf.autocorrelation(**params)
    x0, fold = f.kernel_code()
    assert sum(p[-1] for p in fold) == n_far
    for _, g_j, g_k, *_, far in fold:
        if far:
            assert min(abs(g_j.imag), abs(g_k.imag)) * x0 >= _kernels.SMALL_W
    for r in [-g.real for _, g, *_ in fold] + [g.real for _, _, g, *_ in fold]:
        v = f.laplace(np.array([r])).real[0]
        assert abs(_kernels.f_real_scalar(f.kernel_code(), r) - v) <= SCALAR_REL * abs(v)


def _mp_triangle(x0, z, mp):
    """The triangle's classical closed form (x0 z - 1 + e^{-x0 z}) / z^2."""
    return x0 * x0 / 2 if z == 0 else (x0 * z - 1 + mp.exp(-x0 * z)) / (z * z)


def _mp_reference(f, z, mp):
    """F(z) from the closed forms at 50 digits, the generator's terms rebuilt
    from the weight's parameters rather than read from its family code."""
    z = mp.mpc(z)
    if f.family == "triangle":
        return _mp_triangle(mp.mpf(f.params["x0"]), z, mp)
    a, c0, c1, beta, s = (mp.mpf(f.params[k]) for k in ("alpha", "c0", "c1", "beta", "s"))
    terms = [(c0, mp.mpc(a, 0)), (c1 / 2, mp.mpc(a, beta)), (c1 / 2, mp.mpc(a, -beta))]
    return sum(cj * ck * _mp_pair(gj, gk, z, s, mp)
               for cj, gj in terms for ck, gk in terms if cj * ck != 0)


def _mp_pair(gj, gk, z, s, mp):
    """The pair term (E(s; g_j + g_k) - E(s; g_k - z))/(g_j + z) in mpmath,
    E(s; w) = (e^{w s} - 1)/w; at z = -g_j its limit, the first moment
    int_0^s u e^{(g_j + g_k) u} du."""
    gj, gk, z, s = mp.mpc(gj), mp.mpc(gk), mp.mpc(z), mp.mpf(s)

    def E(w):
        return s if w == 0 else mp.expm1(w * s) / w

    a = gj + gk
    if gj + z == 0:
        return s * s / 2 if a == 0 else (s * mp.exp(a * s) - E(a)) / a
    return (E(a) - E(gk - z)) / (gj + z)


def test_array_transform_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    fams = [tf.triangle(2.0), tf.triangle(0.7), tf.triangle(14.0),
            tf.autocorrelation(alpha=0.5, s=1.0),
            tf.autocorrelation(alpha=0.0, s=2.0),
            tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5),
            tf.autocorrelation(alpha=-0.3, c0=0.0, c1=1.0, beta=0.5, s=3.0),
            tf.autocorrelation(alpha=1.5, c0=1.0, c1=1.0, beta=0.3, s=9.0),
            tf.autocorrelation(alpha=0.0, c0=1.0, c1=1.0, beta=0.6, s=5.0)]
    for f in fams:
        x0, gj, gk = _exponents(f)
        edge = _kernels.SMALL_W / x0
        zs = [complex(a, b) for a in np.linspace(-3.0, 3.0, 7) for b in np.linspace(-10.0, 10.0, 9)]
        zs += [0.0, -0.25, 1.5, -0.01607]
        # both sides of each series switch, |g_j + z| x0 and |g_k - z| x0 at
        # SMALL_W, on and off the real axis, and around z = 0
        for centre in dict.fromkeys([0.0] + [-complex(g) for g in gj] + [complex(g) for g in gk]):
            for d in (0.5, 0.999, 0.9999, 1.0001, 1.001, 1.1, 1.6, 3.0):
                zs += [centre + d * edge * np.exp(1j * np.pi * th)
                       for th in (0.0, 0.25, 0.5, 1.0, 1.3)]
        # the pair closed forms divide by g_j + z; the triangle's has its own z = 0
        poles = [-complex(g) for g in gj] if f.family == "autocorrelation" else []
        zs = [z for z in zs if min((abs(z - p) for p in poles), default=1.0) >= 1e-3]
        # and the coincidence points themselves, where pair_near gives the limit
        zs += list(dict.fromkeys([-complex(g) for g in gj] + [complex(g) for g in gk]))
        got = f.laplace(np.array(zs))
        with mpmath.workdps(50):
            for z, v in zip(zs, got):
                want = _mp_reference(f, z, mpmath)
                # the direct forms just above the switch lose up to 4.3e-12
                assert abs(mpmath.mpc(v) - want) <= 2e-11 * abs(want), (f, z)
                if complex(z).imag == 0.0:
                    # the scalar kernel at the same real points
                    v = _kernels.f_real_scalar(f.kernel_code(), complex(z).real)
                    assert abs(v - want.real) <= 2e-11 * abs(want), (f, z)


def _single_pair_codes(seed, n=40):
    """Seeded one-pair family codes of search-like weights: s in [0.2, 40],
    both profiles, and alpha in [-4, 4] scaled by 1, 1/s and 1/(100 s); each
    folded pair becomes a code of its own with c = 1."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        s = float(rng.uniform(0.2, 40.0))
        alpha = float(rng.uniform(-4.0, 4.0)) / (1.0, s, 100.0 * s)[i % 3]
        params = optimizer._generator(alpha, s, optimizer.PROFILES[i % 2])
        x0, folded = tf.autocorrelation_code(*params)[0]
        for _, g_j, g_k, K, far in folded:
            yield x0, ((1.0, g_j, g_k, K, far),)


@pytest.mark.parametrize("seed", range(4))
def test_pair_terms_near_coincident_nodes_match_mpmath(seed):
    """Pair terms T where |g_j + z| x0 or |g_k - z| x0 lies in
    (1e-12, 0.99) SMALL_W, pair_near's reach, against 50 digits, with
    u = (g_j + g_k) x0: at real points through the scalar kernel within
    4 eps (1 + |u|) |T|, at complex ones through f_array, which adds
    (T(z) + conj T(conj z))/2 for a complex exponent, within
    32 eps (1 + |u|) max(|T(z)|, |T(conj z)|)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(100 + seed)
    eps, small = 2.0 ** -52, _kernels.SMALL_W
    taken = {"real": 0, "complex": 0}

    def near(g_j, g_k, z, x0):
        return any(1e-12 * small < q * x0 < 0.99 * small for q in (abs(g_j + z), abs(g_k - z)))

    with mpmath.workdps(50):
        for code in _single_pair_codes(seed):
            x0, ((_, g_j, g_k, _, _),) = code
            scale = eps * (1.0 + abs((g_j + g_k) * x0))
            own = g_j.imag == 0.0 and g_k.imag == 0.0
            for centre in (-g_j, g_k):
                for _ in range(3):
                    d = 10.0 ** rng.uniform(-12.0, math.log10(0.99)) * small / x0
                    r = centre.real + d * rng.choice((-1.0, 1.0))
                    if near(g_j, g_k, r, x0):
                        taken["real"] += 1
                        T = _mp_pair(g_j, g_k, r, x0, mpmath)
                        got = _kernels.f_real_scalar(code, r)
                        assert abs(got - T.real) <= 4.0 * scale * abs(T), (code, r)
                    z = centre + d * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                    if near(g_j, g_k, z, x0):
                        taken["complex"] += 1
                        T = _mp_pair(g_j, g_k, z, x0, mpmath)
                        Tc = _mp_pair(g_j, g_k, z.conjugate(), x0, mpmath)
                        want = T if own else (T + mpmath.conj(Tc)) / 2
                        got = mpmath.mpc(_kernels.f_array(code, z))
                        assert abs(got - want) <= 32.0 * scale * max(abs(T), abs(Tc)), (code, z)
    assert min(taken.values()) >= 200, taken


def test_near_points_take_pair_near(monkeypatch):
    """Both evaluators hand a pair term near coincident nodes to pair_near, and
    no other: the plain weight's one pair at r = -alpha and next to it."""
    f = tf.autocorrelation(alpha=0.5, s=1.0)
    calls = []
    near = _kernels.pair_near
    monkeypatch.setattr(_kernels, "pair_near", lambda *args: calls.append(args[3]) or near(*args))
    _kernels.f_real_scalar(f.kernel_code(), 0.37)
    f.laplace(np.array([0.37, 1.2 + 1j]))
    assert calls == []
    _kernels.f_real_scalar(f.kernel_code(), -0.5)
    assert calls == [-0.5]
    f.laplace(np.array([0.37, -0.5, -0.5 + 1e-3j]))
    assert calls == [-0.5, -0.5, -0.5 + 1e-3j]


@pytest.mark.parametrize("x0", [0.7, 2.5, 14.0])
def test_triangle_smoothed_roots_match_mpmath(x0):
    # the triangle runs through the box's pair arithmetic; its roots must stay
    # on those of the classical closed form.  x0 = 14 halves the 'sz' bracket
    mp = pytest.importorskip("mpmath")
    f = tf.triangle(x0)
    solved = {"sz": 0, "cc": 0}
    with mp.workdps(40):
        X0 = mp.mpf(x0)

        def F(r):
            return _mp_triangle(X0, mp.mpf(r), mp)

        for name in dh.SMOOTHED_CASES:
            case = dh.CASES[name]
            for phi in (0.125, 0.25):
                psi = case.psi_over_phi * mp.mpf(phi)
                for b in (1e-3, 0.05, 0.4):
                    if case.form == "sz":
                        def h(x):
                            return case.c1 * (F(-x) - F(b - x)) - F(0) + psi * X0
                    else:
                        def h(x):
                            return F(-b) - F(0) - F(x - b) + psi * X0
                    try:
                        got = dh.solve_smoothed(name, f, b, phi=phi).root
                    except NoBoundError as exc:
                        assert exc.sign == "positive" and h(0) > 0, (name, phi, b)
                        continue
                    want = mp.findroot(h, mp.mpf(got))
                    assert abs(got - want) <= 1e-10 * want, (name, phi, b, got, want)
                    solved[case.form] += 1
    assert min(solved.values()) >= 3


#: (case, b, phi) at the edges of the smoothed solver: widths down to 1e-12
#: and phi != 1/4, for both shapes
SMOOTHED_EDGES = [
    ("sz-lp-principal", 1e-12, 0.25),
    ("sz-lp-principal", 1e-10, 0.25),
    ("sz-lp-principal", 1e-6, 0.25),
    ("sz-lp-principal", 1e-3, 0.25),
    ("sz-lp-quadratic", 1e-10, 0.25),
    ("sz-lp-principal", 1e-6, 0.3),
    ("sz-lp-principal", 1e-3, 0.3),
    ("cc-l2-nonprincipal", 1e-6, 0.3),
    ("cc-l2-nonprincipal", 1e-3, 0.3),
    ("cc-l2-chi2-principal-real", 1e-3, 0.25),
]


@pytest.mark.parametrize("name, b, phi", SMOOTHED_EDGES)
def test_smoothed_root_at_edges_matches_mpmath_bisection(name, b, phi):
    """The root of triangle(14) against an 80-digit bisection of the same h
    from the triangle's closed form.  F(-60) overflows at x0 = 14, so the 'sz'
    bracket is halved before the solve."""
    mp = pytest.importorskip("mpmath")
    f, case = tf.triangle(14.0), dh.CASES[name]
    assert f.laplace(-60.0).real == math.inf
    got = dh.solve_smoothed(name, f, b, phi=phi).root
    with mp.workdps(80):
        X0, B = mp.mpf(14), mp.mpf(b)
        psi = case.psi_over_phi * mp.mpf(phi)

        def F(r):
            return _mp_triangle(X0, mp.mpf(r), mp)

        if case.form == "sz":
            def h(x):
                return case.c1 * (F(-x) - F(B - x)) - F(0) + psi * X0
        else:
            def h(x):
                return F(-B) - F(0) - F(x - B) + psi * X0
        lo, hi = mp.mpf(0), mp.mpf(1)
        assert h(lo) < 0
        while h(hi) < 0:
            hi *= 2
        for _ in range(300):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if h(mid) < 0 else (lo, mid)
        want = (lo + hi) / 2
        err = abs(got - want) / want
    if case.form == "sz":
        # F(-x) - F(b-x) cancels to ~b |F'|: its float rounding, relative
        # to the difference, grows like 1/b (-3.3e-6 at 1e-12, -4.1e-9 at 1e-10)
        assert err <= 2e-17 / b + 1e-13, (got, want)
    else:
        # 'cc' reads F at r >= -b, so nothing cancels in b; at b = 1e-3,
        # |b x0| = 0.014 is just above SMALL_W, where the direct closed form
        # of F(-b) loses up to 4.3e-12 relative (1.1e-11 on the root)
        assert err <= 2e-11, (got, want)


def test_overflowing_pair_gives_plus_infinity():
    # (alpha - r) s = 760 overflows e^{(g_k - r) x0} while -r x0 = 680 <= 690
    f = tf.autocorrelation(alpha=4.0, s=20.0)
    assert _kernels.f_real_scalar(f.kernel_code(), -34.0) == math.inf
    assert f.laplace(-34.0) == complex(math.inf, 0.0)


def test_overflowing_sum_gives_plus_infinity():
    # every pair term is finite at r = -alpha - 3e-4, but their sum is not:
    # both evaluators give +inf, and f_array warns of nothing
    f = tf.autocorrelation(alpha=3.532043859649123, c0=1.0, c1=1.0,
                           beta=0.0645704737365128, s=100.0)
    r = -3.532343859649123
    assert _kernels.f_real_scalar(f.kernel_code(), r) == math.inf
    assert f.laplace(np.array([r]))[0].real == math.inf


def test_grid_kernel_matches_numpy_implementation():
    """The grid minimum against the closed form of the same combination,
    C Re P(a/(c+it)) + B Re P(a/(b+it)) - A Re P(a/(a+it)), which
    ``p4.re_p4_identity`` gives for a <= b <= c."""
    rng = np.random.default_rng(7)
    queries = [(0.5, 0.5, 1.7408, 1.316, 1.4387, 1.7825)]
    queries += [(*rng.uniform(0.1, 2.0, 3), *np.sort(rng.uniform(0.2, 3.0, 3)))
                for _ in range(50)]
    for A, B, C, a, b, c in queries:
        ts = np.linspace(-50.0 * a, 50.0 * a, 4001)
        mn, at = _kernels.p4_combo_min(A, B, C, a, b, c, ts)
        ref = (C * p4.re_p4_identity(a, c, ts) + B * p4.re_p4_identity(a, b, ts)
               - A * p4.re_p4_identity(a, a, ts))
        tol = 1e-13 * (A + B + C)
        assert mn == pytest.approx(ref.min(), abs=tol)
        # near-ties may pick another grid point, but never a worse one
        assert ref[np.flatnonzero(ts == at)[0]] <= ref.min() + tol


def test_smoothed_root_matches_generic_bisection():
    f = tf.triangle(2.5)
    via_kernel = dh.solve_smoothed("sz-lp-quadratic", f, 0.01).lambda_star
    clone = tf.TrialFunction("plugin", {}, f.content, lambda t: f(t),
                             lambda z: f.laplace(z))
    via_python = dh.solve_smoothed("sz-lp-quadratic", clone, 0.01).lambda_star
    assert via_kernel == pytest.approx(via_python, abs=1e-10)


# Each root kernel as (solve(phi, lo, hi), independent vectorized h at phi = 1/4).
_TRIANGLE = tf.triangle(2.5)
_ORDER234 = zfr.CASES["order234"]
ROOT_KERNELS = {
    "smoothed_root": (
        lambda phi, lo, hi: _kernels.smoothed_root(_kernels.smoothed_fn(
            functools.partial(_kernels.f_real_scalar, _TRIANGLE.kernel_code()),
            0, 2.0, 4.0 * phi, 0.01, _TRIANGLE.content.f0), lo, hi),
        dh.smoothed_h("sz-lp-quadratic", _TRIANGLE, 0.01)),
    "plugin": (
        lambda phi, lo, hi: _kernels._bisect(
            lambda x: float(dh.smoothed_h("sz-lp-quadratic", _TRIANGLE, 0.01, phi)(x)),
            lo, hi),
        dh.smoothed_h("sz-lp-quadratic", _TRIANGLE, 0.01)),
    "poly_root": (
        lambda phi, lo, hi: _kernels.poly_root(
            *_kernels.poly_fn(1, 1.097, 0.1227, 2.0 * phi), 0.7788, 1.097, lo, hi),
        dh.poly_h("cc-lp-nonprincipal", 0.1227, 1.097, 0.7788)),
    "zfr_root": (
        lambda phi, lo, hi: _kernels.zfr_root(
            float(_ORDER234.coeffs[0]), float(_ORDER234.coeffs[1]), float(_ORDER234.B),
            0.9421, phi, lo, hi),
        zfr.zfr_h("order234", 0.9421)),
}


@pytest.mark.parametrize("name", list(ROOT_KERNELS))
def test_bisection_contract(name):
    solve, h = ROOT_KERNELS[name]
    root, hlo, hhi = solve(0.25, 0.0, 10.0)
    assert hlo < 0 < hhi
    assert float(h(root - 1e-6)) < 0 < float(h(root + 1e-6))
    # no sign change: NaN root plus both endpoint values
    lo, hi = root + 0.5, root + 1.0
    root2, hlo2, hhi2 = solve(0.25, lo, hi)
    assert math.isnan(root2)
    assert hlo2 == pytest.approx(float(h(lo)), rel=1e-9)
    assert hhi2 == pytest.approx(float(h(hi)), rel=1e-9)
    # a NaN endpoint value is not a sign change
    assert math.isnan(solve(math.nan, 0.0, 10.0)[0])


def _reference_bisect(h, lo, hi, guess=None):
    """The plain bisection the ITP solver replaced, kept as the reference.

    It ignores ``guess``: the reference always solves on [lo, hi]."""
    hlo = h(lo)
    hhi = h(hi)
    if hlo > 0.0 or hhi < 0.0 or hlo != hlo or hhi != hhi:
        return math.nan, hlo, hhi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if h(mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), hlo, hhi


class _Counted:
    """A root solver that counts the evaluations of h it makes."""

    def __init__(self, solver):
        self.solver = solver
        self.evals = 0

    def __call__(self, h, lo, hi, guess=None):
        def counted(x):
            self.evals += 1
            return h(x)
        return self.solver(counted, lo, hi, guess)


def _step(x):
    return -1.0 if x < 0.3 else (x > 0.6) * 1.0


@pytest.mark.parametrize("h,lo,want", [
    (lambda x: 0.0, 0.0, 0.0),        # zero everywhere: lo, as bisection gave
    (_step, 0.4, 0.4),                # zero at lo
    (lambda x: x - 0.25, 0.0, 0.25),  # an exact zero inside
])
def test_exact_zeros_of_h(h, lo, want):
    # h = 0 on the whole bracket is the b = 0 degenerate case of a weight with
    # F(0) = psi f(0), e.g. sz-lp-quadratic with autocorrelation(alpha=0, s=2),
    # which solve_smoothed reports as degenerate
    root, hlo, hhi = _kernels._bisect(h, lo, 1.0)
    assert root == want and (hlo, hhi) == (h(lo), h(1.0))
    assert _step(_kernels._bisect(_step, 0.0, 1.0)[0]) == 0.0


def test_guess_in_a_flat_zero_solves_on_the_whole_bracket():
    # h = 0 at both ends of the bracket around the guess is no degenerate h
    # here: the solver falls back to [lo, hi] and reports its end values
    root, hlo, hhi = _kernels._bisect(_step, 0.0, 1.0, guess=0.45)
    assert _step(root) == 0.0 and (hlo, hhi) == (-1.0, 1.0)


# the smoothed set: the triangle and verify's two cosine-modulated weights, the
# search's plain starting weight, and the T2:principal search optimum at b=1e-5
SMOOTHED_WEIGHTS = (
    tf.triangle(2.5),
    tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5),
    tf.autocorrelation(alpha=-0.3, c0=0.0, c1=1.0, beta=0.5, s=3.0),
    tf.autocorrelation(alpha=0.0, s=2.0),
    tf.autocorrelation(alpha=0.5552, c0=1.0, c1=1.0, beta=1.309, s=1.2),
)
SMOOTHED_WIDTHS = (0.0, 1e-6, 1e-5, 1e-3, 0.05, 0.2, 0.4)


def _solve_smoothed_set(solver):
    """Roots (or NoBoundError signs) over the smoothed set, and h evaluations."""
    counted = _Counted(solver)
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_bisect", counted)
        for case in dh.SMOOTHED_CASES:
            for i, f in enumerate(SMOOTHED_WEIGHTS):
                for b in SMOOTHED_WIDTHS:
                    try:
                        out[case, i, b] = dh.solve_smoothed(case, f, b).root
                    except NoBoundError as exc:
                        out[case, i, b] = exc.sign
    return out, counted.evals


@pytest.fixture(scope="module")
def smoothed_runs():
    return {"itp": _solve_smoothed_set(_kernels._bisect),
            "reference": _solve_smoothed_set(_reference_bisect)}


def test_smoothed_roots_agree_with_bisection(smoothed_runs):
    itp, _ = smoothed_runs["itp"]
    ref, _ = smoothed_runs["reference"]
    assert itp.keys() == ref.keys()
    assert sum(isinstance(v, float) for v in ref.values()) >= 150
    for key, want in ref.items():
        got = itp[key]
        if not isinstance(want, float):   # NoBoundError's sign
            assert got == want, key
            continue
        # h is flat near the root at tiny widths: float noise moves the root
        tol = 1e-9 if key[2] <= 1e-5 else 1e-12
        assert abs(got - want) <= tol * max(1.0, abs(want)), key


def test_guess_changes_no_root_and_no_failure(smoothed_runs):
    # a guess only changes how the solver gets to the root: below, near, above
    # and far above it, at the bracket end and NaN (ignored).  Failures give
    # the same sign, and keys with no root take the guesses around 1
    unguided, _ = smoothed_runs["itp"]
    assert None in unguided.values()   # h = 0 at both ends: sz-lp-quadratic, b = 0
    for (case, i, b), want in unguided.items():
        centre = want if isinstance(want, float) else 1.0
        for guess in (0.5 * centre, 0.999 * centre, 1.001 * centre, 3.0 * centre,
                      60.0, math.nan):
            try:
                got = dh.solve_smoothed(case, SMOOTHED_WEIGHTS[i], b, guess=guess).root
            except NoBoundError as exc:
                got = exc.sign
            key = (case, i, b, guess)
            if not isinstance(want, float):
                assert got == want, key
                continue
            assert isinstance(got, float), key
            tol = 1e-9 if b <= 1e-5 else 1e-12
            assert abs(got - want) <= tol * max(1.0, abs(want)), key


def test_root_helper_is_the_solvers_root(smoothed_runs):
    # the family search scores a weight by dh._smoothed_root alone: over the
    # smoothed set, cold and from guesses, its root is solve_smoothed's to the
    # bit, and NaN exactly where solve_smoothed raises NoBoundError
    unguided, _ = smoothed_runs["itp"]
    failed = 0
    for (case, i, b), want in unguided.items():
        f = SMOOTHED_WEIGHTS[i]
        F = functools.partial(_kernels._f_real_scalar, f.kernel_code())
        centre = want if isinstance(want, float) else 1.0
        for guess in (None, 0.999 * centre, 3.0 * centre, 60.0):
            root = dh._smoothed_root(dh.CASES[case], F, f.content.f0, b, dh.PHI,
                                     guess=guess)[0]
            try:
                solved = dh.solve_smoothed(case, f, b, guess=guess).lambda_star
            except NoBoundError:
                assert math.isnan(root), (case, i, b, guess)
                failed += 1
                continue
            assert root == solved, (case, i, b, guess)
    assert 0 < failed < 2 * len(unguided)   # some, and under half of 4 per key


def test_flat_principal_case_pinned():
    # sz-lp-principal at b = 1e-6: h is flat around the root, where the
    # interpolating solver and bisection land on different float-noise zeros
    f = SMOOTHED_WEIGHTS[4]
    got = dh.solve_smoothed("sz-lp-principal", f, 1e-6).root
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_bisect", _reference_bisect)
        want = dh.solve_smoothed("sz-lp-principal", f, 1e-6).root
    assert abs(got - want) <= 1e-9 * max(1.0, want)


POLY_KEYS = ("T3:quadratic", "T3:principal", "T4", "T5", "T9", "T10")


def _quartic_problems():
    """(solve() -> root, independent h in x, hi) for every bundled poly row
    and the zero-free-region roots at ten lambdas and three phis."""
    out = []
    for key in POLY_KEYS:
        t = tables.load_table(key)
        for r in t.rows:
            out.append((lambda c=t.case_name, r=r: dh.solve_poly(c, r.b, r.lam, r.J).root,
                        dh.poly_h(t.case_name, r.b, r.lam, r.J), 1e3))
    for case in ("order234", "principal"):
        for lam in np.linspace(0.3, 2.55, 10):
            for phi in (0.2, 0.25, 0.3):
                out.append((lambda c=case, lam=lam, phi=phi: zfr.zfr_solve(c, lam, phi).root,
                            zfr.zfr_h(case, lam, phi), 10.0))
    return out


def test_quartic_roots_agree_with_bisection():
    problems = _quartic_problems()
    assert len(problems) == 221 + 60
    solved = 0
    for solve, h, hi in problems:
        want = _reference_bisect(lambda x: float(h(x)), 0.0, hi)[0]
        try:
            got = solve()
        except NoBoundError:
            assert math.isnan(want)
            continue
        assert abs(got - want) <= 2e-15 * max(1.0, abs(want)), (got, want)
        solved += 1
    assert solved >= 221 + 30


def test_itp_evaluates_h_far_less_than_bisection(smoothed_runs):
    # evaluation counts, so the guard does not depend on the machine
    assert smoothed_runs["itp"][1] <= 0.60 * smoothed_runs["reference"][1]


def test_newton_inverts_p_in_few_steps(monkeypatch):
    # machine-independent: the evaluations of P that _kernels._p4_root makes
    # per quartic root, one per Newton step plus the one that ends the loop,
    # over every bundled poly row and the zero-free-region roots.  Bisection
    # in x took 65.6 evaluations of h per bundled row
    evals, inside = [], False
    p4, p4_root = _kernels._p4, _kernels._p4_root

    def counted_p4(u):
        if inside:
            evals[-1] += 1
        return p4(u)

    def counted_root(*args):
        nonlocal inside
        evals.append(0)
        inside = True
        try:
            return p4_root(*args)
        finally:
            inside = False

    monkeypatch.setattr(_kernels, "_p4", counted_p4)
    monkeypatch.setattr(_kernels, "_p4_root", counted_root)
    for solve, _, _ in _quartic_problems():
        try:
            solve()
        except NoBoundError:
            pass
    solved = [n for n in evals if n]   # a root with no sign change takes none
    assert len(evals) == 221 + 60 and len(solved) >= 221 + 30
    assert max(solved) <= 10
    assert sum(solved) / len(solved) <= 7.0


#: the count below when every root solve started cold on [0, 60] with ITP
#: slack n0 = 1 (T2:principal 50,095, T8:chi2-principal-real 22,327)
COLD_F_CALLS = 72_422


def test_warm_chained_regress_makes_fewer_f_calls(monkeypatch):
    # machine-independent: the scalar F calls of the root solves in two
    # warm-chained five-row regressions at the benchmark's budget
    calls = 0
    f_real = _kernels._f_real_scalar

    def counted(code, r):
        nonlocal calls
        calls += 1
        return f_real(code, r)

    monkeypatch.setattr(_kernels, "_f_real_scalar", counted)
    for key in ("T2:principal", "T8:chi2-principal-real"):
        t = tables.load_table(key)
        rep = tables.regress(dataclasses.replace(t, rows=t.rows[:5]), budget=120)
        assert rep.n_pass == 5
    assert calls <= 0.70 * COLD_F_CALLS
