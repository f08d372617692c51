"""Scalar kernels against the vectorized reference paths, and the root solver's
contract and agreement with plain bisection."""

import cmath
import functools
import math
import types

import numpy as np
import pytest

from heckezeros import _kernels, dh, optimizer, p4, tables, trial_functions as tf, zfr
from heckezeros.errors import NoBoundError

SMOOTHED_CASES = tuple(n for n, c in dh.CASES.items() if c.method == "smoothed")


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


@pytest.mark.parametrize("params, folded, real_exps, off_axis_shapes", [
    # cosine: alpha's, g's and conj g's exps, at z alone off the axis too
    ({"alpha": -0.8, "c0": 1.0, "c1": 0.9, "beta": 2.0, "s": 2.5}, 5, 3, [(3, 3)]),
    ({"alpha": -0.3, "c0": 0.0, "c1": 1.0, "beta": 0.5, "s": 3.0}, 2, 2, [(2, 3)]),  # c0 = 0
    ({"alpha": 0.5, "s": 1.0}, 1, 1, [(1, 3)]),                                     # plain
])
def test_conjugate_pairs_fold_to_one_exp_each(params, folded, real_exps, off_axis_shapes,
                                             monkeypatch):
    """The code keeps one pair of each conjugate pair.  At a real point F
    takes one exp per folded pair, except on the search's five-pair layout
    (the cosine weight), where it takes one per generator exponent, alpha's
    and g's.  f_array takes one stacked array exp, a row per distinct g_k:
    at real points 3 rows for the cosine weight's five pairs, whose g_k are
    alpha, g, alpha, g and conj g; off the real axis each pair with a
    complex exponent unfolds to its two conjugate pairs, whose g_k are among
    the same three, so the rows stay 3, each at the points z alone."""
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
    assert len(calls) == (2 if folded == 5 else folded)
    # the shape of each w = (g_k - z) x0 that f_array exponentiates
    shapes = []
    monkeypatch.setattr(_kernels, "np", _CountedExp(shapes))
    f.laplace(np.linspace(-2.0, 2.0, 7))
    f.laplace(0.37 + 0j)       # a complex scalar on the real axis
    assert shapes == [(real_exps, 7), (real_exps, 1)]
    shapes.clear()
    f.laplace(np.array([0.37 + 1j, -0.5 - 2j, 3j]))
    assert shapes == off_axis_shapes


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


def _search_layout(code):
    """Whether a code has the layout of the search's weights, the one the
    derivative kernel serves: the five folded pairs of a three-term
    generator, its complex exponent's pairs ``far``."""
    folded = code[1]
    return len(folded) == 5 and folded[3][4]


#: weights of the search's code layout: its seed grid over both profiles, and
#: the cosine weights of the scalar set
SLOPE_WEIGHTS = tuple(
    [tf.autocorrelation(*optimizer._generator(alpha, s, mult))
     for alpha in optimizer.FAMILY_GRID["alpha"] for s in optimizer.FAMILY_GRID["s"]
     for mult in optimizer.PROFILES]
    + [f for f in SCALAR_WEIGHTS if _search_layout(f.kernel_code())])


def _mp_slope(f, rs, mp):
    """F'(r) at each r of rs for an autocorrelation weight, from the closed
    forms at 50 digits: the pair term T = (K - E(A))/b, A = g_k - r and
    b = g_j + r, has T' = (E'(A) - T)/b with E'(A) = (s e^{As} - E(A))/A
    (s^2/2 at A = 0), the generator's terms rebuilt from the weight's
    parameters."""
    a, c0, c1, beta, s = (mp.mpf(f.params[k]) for k in ("alpha", "c0", "c1", "beta", "s"))
    terms = [(c0, mp.mpc(a, 0)), (c1 / 2, mp.mpc(a, beta)), (c1 / 2, mp.mpc(a, -beta))]
    pairs = []
    for cj, gj in terms:
        for ck, gk in terms:
            if cj * ck != 0:
                w = gj + gk
                pairs.append((cj * ck, gj, gk, s if w == 0 else mp.expm1(w * s) / w))
    out = []
    for r in map(mp.mpf, rs):
        acc = 0
        for c, gj, gk, K in pairs:
            A, b = gk - r, gj + r
            if A == 0:
                EA, dEA = s, s * s / 2
            else:
                e = mp.exp(A * s)
                EA = (e - 1) / A
                dEA = (s * e - EA) / A
            acc += c * (dEA - (K - EA) / b) / b
        out.append(acc.real)
    return out


#: F' of the derivative kernel against 50 digits, relative to |F'| (F' < 0
#: for every weight, as f >= 0): the worst of the points below is 1.4e-9,
#: just past a series switch, where T' divides a difference twice by
#: |b| or |A| >= SMALL_W / x0; the median is 5.4e-16
SLOPE_REL = 4e-9


def test_derivative_kernel_f_is_the_scalar_kernels():
    # at every real test point of the seed grid and the cosine scalar set: the
    # kernel's F is f_real_scalar's to the bit, and it declines exactly where
    # a pair takes pair_near or F overflows to +inf
    declined = 0
    for f in SLOPE_WEIGHTS:
        code = f.kernel_code()
        for r in map(float, _real_points(f) + [-60.0, -120.0]):
            with pytest.MonkeyPatch.context() as mp:
                near = []
                pair_near = _kernels.pair_near
                mp.setattr(_kernels, "pair_near", lambda *args: near.append(1) or pair_near(*args))
                want = _kernels._f_real_scalar(code, r)
            got = _kernels._f_real_scalar_d(code, r)
            if got is None:
                declined += 1
                assert near or want == math.inf, (f, r)
                continue
            assert not near and math.isfinite(want), (f, r)
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, want)
            assert got[0] == want, (f, r)
    assert declined >= 1000


def test_derivative_kernel_slope_matches_mpmath():
    # every 8th point of the grid and every point by a series switch or 0
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    with mpmath.workdps(50):
        for f in SLOPE_WEIGHTS:
            pts = _real_points(f)
            got = {r: _kernels._f_real_scalar_d(f.kernel_code(), r)
                   for r in map(float, pts[:161:8] + pts[161:])}
            rs = [r for r, v in got.items() if v is not None]
            for r, want in zip(rs, map(float, _mp_slope(f, rs, mpmath))):
                assert want < 0.0 and abs(got[r][1] - want) <= SLOPE_REL * -want, (f, r)
                checked += 1
    assert checked >= 1000


def _pair_loop_d(code, r):
    """(F(r), F'(r)) by a pass over the folded pairs, one exp and four
    quotients per pair, or None: the reference whose bits
    ``_kernels._f_real_scalar_d`` keeps."""
    x0, folded = code
    if r < 0.0 and -r * x0 > 690.0:
        return None
    acc = dacc = 0.0
    for c, gj, gk, K, far in folded:
        b = gj + r
        a = gk - r
        w = a * x0
        if not far and (abs(b) * x0 < _kernels.SMALL_W or abs(w) < _kernels.SMALL_W):
            return None
        try:
            ew = cmath.exp(w)
        except OverflowError:
            return None
        e = (ew - 1.0) / a
        phi = (K - e) / b
        acc += c * phi.real
        dacc += c * (((x0 * ew - e) / a - phi) / b).real
    return acc, dacc


#: weights of every code layout: SLOPE_WEIGHTS (the search's five pairs),
#: the rest of the scalar set (one pair, and the c0 = 0 pairs with beta s
#: above SMALL_W), both multi-pair layouts with beta s below it, and weights
#: whose exponents reach cmath.exp's scaled band at -r x0 <= 690, five-pair
#: ones past the search's box among them: at x0 <= 2, x0 e^w of the real
#: exponent stays finite into the band, and at beta s = pi/4 the complex
#: exponent's e^w, x0 e^w stay finite a little past the real one's
LAYOUT_WEIGHTS = SLOPE_WEIGHTS + tuple(f for f in SCALAR_WEIGHTS if f not in SLOPE_WEIGHTS) + (
    tf.autocorrelation(alpha=0.5, c0=1.0, c1=1.0, beta=0.003, s=3.0),
    tf.autocorrelation(alpha=-0.3, c0=0.0, c1=1.0, beta=0.002, s=3.0),
    tf.autocorrelation(alpha=3.0, c0=1.0, c1=1.0, beta=math.pi / 40.0, s=10.0),
    tf.autocorrelation(alpha=4.0, c0=1.0, c1=1.0, beta=math.pi / 32.0, s=8.0),
    tf.autocorrelation(alpha=12.5, c0=1.0, c1=1.0, beta=math.pi / 8.0, s=2.0),
    tf.autocorrelation(alpha=25.0, c0=1.0, c1=1.0, beta=math.pi / 4.0, s=1.0),
    tf.autocorrelation(alpha=50.0, c0=1.0, c1=1.0, beta=math.pi / 2.0, s=0.5),
    tf.autocorrelation(alpha=100.0, c0=1.0, c1=1.0, beta=2.0 * math.pi, s=0.25),
    tf.autocorrelation(alpha=3.0, c0=0.0, c1=1.0, beta=math.pi / 20.0, s=10.0),
    tf.autocorrelation(alpha=30.0, s=10.0),
)

#: log(DBL_MAX): e^w overflows past it
_LOG_MAX = math.log(np.finfo(float).max)
#: log(DBL_MAX/4): past it cmath.exp forms e^w as e^{w-1} e, whose bits
#: differ from math.exp's
_LOG_LARGE = math.log(np.finfo(float).max / 4.0)


def _layout_points(code):
    """Real points of a code: a grid, r = +-0.0, both sides of each series
    switch, -r x0 about 690, and the real parts w of each exponent's
    (g_k - r) x0 across [707, 709.79]: x0 e^w overflows there for x0 = 10,
    and past 708.40 cmath.exp scales e^w, which overflows past 709.78."""
    x0, folded = code
    edge = _kernels.SMALL_W / x0
    pts = list(np.linspace(-8.0, 8.0, 41)) + [0.0, -0.0, -0.25, -3.0]
    for e in (-690.0 / x0, -689.99 / x0, -690.01 / x0):
        pts += [e, math.nextafter(e, 0.0), math.nextafter(e, -math.inf)]
    centres = {-p[1].real for p in folded} | {p[2].real for p in folded}
    for centre in centres:
        pts += [centre + d * edge for d in (0.0, -0.5, 0.5, -0.999, 0.999, -1.001, 1.001, -3.0, 3.0)]
        pts += [math.nextafter(centre + d * edge, t) for d in (-1.0, 1.0) for t in (-math.inf, math.inf)]
    for g in {p[2].real for p in folded}:
        ws = list(np.linspace(707.0, 709.79, 57)) + [_LOG_LARGE, _LOG_MAX]
        pts += [g - w / x0 for w in ws]
        pts += [math.nextafter(g - w / x0, t) for w in ws[-2:] for t in (-math.inf, math.inf)]
    return [float(r) for r in pts]


def _bits(v):
    return None if v is None else tuple(x.hex() for x in v)


def test_derivative_kernel_keeps_the_pair_loops_bits():
    # on the search's layout, per exponent, F and F' have the bits of the
    # pair loop, and the kernel declines exactly where the loop does or gives
    # a non-finite F' (x0 e^w of the real exponent overflows); it declines
    # every code of another layout, hand-built one-pair codes included
    codes = [f.kernel_code() for f in LAYOUT_WEIGHTS] + list(_single_pair_codes(0, n=12))
    seen = {"layouts": set(), "declined": 0, "scaled": 0, "values": 0, "non_finite": 0}
    for code in codes:
        x0, folded = code
        seen["layouts"].add((len(folded), folded[-1][-1]))
        for r in _layout_points(code):
            want, got = _pair_loop_d(code, r), _kernels._f_real_scalar_d(code, r)
            if not _search_layout(code):
                assert got is None, (code, r)
                continue
            if want is not None and not math.isfinite(want[1]):
                seen["non_finite"] += math.isfinite(want[0])
                want = None
            assert _bits(got) == _bits(want), (code, r)
            if want is None:
                seen["declined"] += 1
                continue
            seen["values"] += 1
            ws = [(p[2].real - r) * x0 for p in folded if p[2].imag == 0.0]
            seen["scaled"] += any(_LOG_LARGE < w and math.exp(w) != cmath.exp(w).real
                                  for w in ws)
    assert seen["layouts"] == {(1, False), (1, True), (2, False), (2, True), (5, False), (5, True)}
    assert seen["declined"] >= 3000 and seen["values"] >= 2500
    # points where math.exp's bits would differ from cmath.exp's, and where
    # F is finite but the loop's F' not (NaN, or an infinity on Python
    # 3.14), as x0 e^w of the real exponent overflows
    assert seen["scaled"] >= 40 and seen["non_finite"] >= 100


def _pair_loop_f(code, r):
    """F(r) by the pass over the folded pairs, one exp per pair, pair_near
    near coincident nodes and +inf past the exp range: the reference whose
    bits ``_kernels._f_real_scalar`` keeps on every code."""
    x0, folded = code
    if r < 0.0 and -r * x0 > 690.0:
        return math.inf
    acc = 0.0
    for c, gj, gk, K, far in folded:
        b = gj + r
        a = gk - r
        w = a * x0
        if not far and (abs(b) * x0 < _kernels.SMALL_W or abs(w) < _kernels.SMALL_W):
            phi = _kernels.pair_near(K, gj, gk, r, x0)
        else:
            try:
                e = (cmath.exp(w) - 1.0) / a
            except OverflowError:
                return math.inf
            phi = (K - e) / b
        acc += c * phi.real
    return acc


def test_per_exponent_f_keeps_the_pair_loops_bits():
    # at the points of test_derivative_kernel_keeps_the_pair_loops_bits, on
    # every code layout: F has the pair loop's bits.  The per-exponent pass
    # serves the search's layout exactly where the pair loop takes no
    # pair_near and no exp overflows, which includes the points where only
    # F' is not finite; the pair loop serves every other point and code
    codes = [f.kernel_code() for f in LAYOUT_WEIGHTS] + list(_single_pair_codes(0, n=12))
    seen = {"layouts": set(), "served": 0, "loop": 0, "scaled": 0, "non_finite": 0, "inf": 0}
    for code in codes:
        x0, folded = code
        seen["layouts"].add((len(folded), folded[-1][-1]))
        for r in _layout_points(code):
            want, got = _pair_loop_f(code, r), _kernels._f_real_scalar(code, r)
            assert got.hex() == want.hex(), (code, r)
            ref_d = _pair_loop_d(code, r)
            served = _kernels._search_pass(code, r, False) is not None
            assert served == (_search_layout(code) and ref_d is not None), (code, r)
            seen["inf"] += got == math.inf
            if not served:
                seen["loop"] += 1
                continue
            seen["served"] += 1
            seen["non_finite"] += not math.isfinite(ref_d[1])
            ws = [(p[2].real - r) * x0 for p in folded if p[2].imag == 0.0]
            seen["scaled"] += any(_LOG_LARGE < w and math.exp(w) != cmath.exp(w).real
                                  for w in ws)
    assert seen["layouts"] == {(1, False), (1, True), (2, False), (2, True), (5, False), (5, True)}
    assert seen["served"] >= 2800 and seen["loop"] >= 10000 and seen["inf"] >= 5000
    assert seen["scaled"] >= 40 and seen["non_finite"] >= 100


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
    (T(z) + T'(z))/2 for a complex exponent, T'(z) = conj T(conj z) the
    term of the conjugate pair, within
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


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_array_e_series_matches_mpmath(kind):
    """E(x, a) = (e^{ax} - 1)/a inside the series disc 0 < |a x| < SMALL_W,
    against 50 digits; where a x = 0 (a = 0 or x = 0) it is x exactly, and
    outside the disc, in the same array, the quotient itself."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    n = 400
    x = rng.uniform(0.05, 40.0, n)
    w = 10.0 ** rng.uniform(-14.0, math.log10(0.99 * _kernels.SMALL_W), n)
    if kind == "real":
        a = w * rng.choice([-1.0, 1.0], n) / x
    else:
        a = w * np.exp(1j * rng.uniform(-math.pi, math.pi, n)) / x
    a[::7] *= 1.0 / w[::7]   # |a x| = 1, outside the disc
    a[1::7] = 0.0
    x[2::7] = 0.0
    got = _kernels.E(x, a)
    assert got.dtype == a.dtype
    zero = a * x == 0
    assert np.array_equal(got[zero], x[zero]) and zero.sum() >= 2 * (n // 7)
    out = np.abs(a * x) >= _kernels.SMALL_W
    assert np.array_equal(got[out], (np.exp(a[out] * x[out]) - 1.0) / a[out])
    inside = ~zero & ~out
    assert inside.sum() >= n // 2
    with mpmath.workdps(50):
        for xi, ai, gi in zip(x[inside], a[inside], got[inside]):
            want = (mpmath.exp(mpmath.mpc(ai) * xi) - 1) / mpmath.mpc(ai)
            assert abs(mpmath.mpc(gi) - want) <= 4.0 * 2.0 ** -52 * abs(want), (xi, ai)


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

        for name in SMOOTHED_CASES:
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


def test_array_transform_is_plus_infinity_exactly_where_the_scalar_kernel_is():
    # e^{(g_k - r) x0} = e^800 is inf+nanj in NumPy: the array path gave
    # [nan, 1.135] here, where the scalar kernel gives inf at -400
    got = tf.triangle(2.0).laplace(np.array([-400.0, 1.0]))
    assert got[0] == complex(math.inf, 0.0)
    assert got[1] == tf.triangle(2.0).laplace(np.array([1.0]))[0]
    for f in SCALAR_WEIGHTS:
        # across -r x0 = 690 (the scalar kernel's inf) and past each pair's
        # exp overflow, on one grid and point by point; no RuntimeWarning
        edge = -690.0 / f.x0
        rs = np.concatenate([np.linspace(1.5 * edge, 0.0, 301),
                             [edge, np.nextafter(edge, 0.0), np.nextafter(edge, -1.0), -1e300]])
        want = np.array([_kernels.f_real_scalar(f.kernel_code(), float(r)) for r in rs])
        for got in (f.laplace(rs).real, np.array([f.laplace(np.array([r]))[0].real for r in rs])):
            assert not np.isnan(got).any(), f
            assert ((got == math.inf) == (want == math.inf)).all(), f
        assert (want == math.inf).any() and (want < math.inf).any(), f


def test_overflowing_sum_gives_plus_infinity():
    # every pair term is finite at r = -alpha - 3e-4, but their sum is not:
    # both evaluators give +inf, and f_array warns of nothing
    f = tf.autocorrelation(alpha=3.532043859649123, c0=1.0, c1=1.0,
                           beta=0.0645704737365128, s=100.0)
    r = -3.532343859649123
    assert _kernels.f_real_scalar(f.kernel_code(), r) == math.inf
    assert f.laplace(np.array([r]))[0].real == math.inf


def test_overflow_verdict_never_skips_an_infinite_probe():
    # the search's root takes no overflow probe: its bracket is [0, dh.HI]
    # for every weight of the search's box, as F(-HI) is finite there.  A
    # weight's x0 is s <= 10, so x0 HI <= 600, and each pair's exponent has
    # Re g_k <= |alpha| <= 4, so (Re g_k + HI) x0 <= 640 < 709; both grow
    # with |alpha| and s, and the coefficients are the profile's, |c| <= 1.
    # At the box's corners and the search's seeds the code has the layout
    # the derivative kernel serves, which gives a finite (F, F') at -HI: a
    # wider box could make it decline there
    points = [(alpha, s) for alpha in optimizer.FAMILY_BOXES["alpha"]
              for s in optimizer.FAMILY_BOXES["s"]]
    points += [(alpha, s) for alpha in optimizer.FAMILY_GRID["alpha"]
               for s in optimizer.FAMILY_GRID["s"]]
    checked = 0
    for alpha, s in points:
        for mult in optimizer.PROFILES:
            key = (alpha, s, mult)
            code = tf.autocorrelation_code(*optimizer._generator(alpha, s, mult))[0]
            x0, folded = code
            assert x0 == s and x0 * dh.HI <= 600.0, key
            for c, _, gk, _, _ in folded:
                assert (gk.real + dh.HI) * x0 <= 640.0 and abs(c) <= 1.0, key
            assert math.isfinite(_kernels._f_real_scalar(code, -dh.HI)), key
            assert _search_layout(code), key
            got = _kernels._f_real_scalar_d(code, -dh.HI)
            assert got is not None and all(map(math.isfinite, got)), key
            checked += 1
    assert checked == 8 + 36


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
    clone = tf.TrialFunction("plugin", {}, f.x0, f.f0, lambda t: f(t),
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
            "sz", 2.0, 4.0 * phi, 0.01, _TRIANGLE.f0), lo, hi),
        dh.smoothed_h("sz-lp-quadratic", _TRIANGLE, 0.01)),
    "plugin": (   # smoothed_h's h, through the array transform, at any phi
        lambda phi, lo, hi: _kernels._bisect(_kernels.smoothed_fn(
            lambda r: float(_TRIANGLE.laplace(np.array([r]))[0].real),
            "sz", 2.0, 4.0 * phi, 0.01, _TRIANGLE.f0), lo, hi),
        dh.smoothed_h("sz-lp-quadratic", _TRIANGLE, 0.01)),
    "poly_root": (
        lambda phi, lo, hi: _kernels.poly_root(
            *_kernels.poly_fn(1, 1.097, 0.1227, 2.0 * phi)[:2], 0.7788, 1.097, lo, hi),
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


def _reference_bisect(h, lo, hi):
    """The plain bisection the ITP solver replaced, kept as the reference."""
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

    def __call__(self, h, lo, hi):
        def counted(x):
            self.evals += 1
            return h(x)
        return self.solver(counted, lo, hi)


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
        for case in SMOOTHED_CASES:
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


def test_root_helper_is_the_solvers_root(smoothed_runs):
    # over the smoothed set, solve_smoothed's root is ITP's on [0, dh.HI] of
    # smoothed_fn's exact h to the bit; the family search scores a weight by
    # dh._search_root alone, whose root (from no guess) is NaN exactly where
    # solve_smoothed raises NoBoundError, and within the snap band of its
    # root elsewhere (test_search_snap)
    roots, _ = smoothed_runs["itp"]
    assert None in roots.values()   # h = 0 at both ends: sz-lp-quadratic, b = 0
    failed = 0
    for (case, i, b), want in roots.items():
        f, case_ = SMOOTHED_WEIGHTS[i], dh.CASES[case]
        code = f.kernel_code()
        F = functools.partial(_kernels._f_real_scalar, code)
        assert math.isfinite(F(-dh.HI))   # no bracket halving
        root = dh._search_root(case_, code, f.f0, F(0.0), b, dh.PHI, None, -math.inf)
        if not isinstance(want, float):   # NoBoundError's sign
            assert math.isnan(root), (case, i, b)
            failed += 1
            continue
        h = _kernels.smoothed_fn(F, case_.form, float(case_.c1), case_.psi_over_phi * dh.PHI,
                                 b, f.f0)
        assert _kernels.smoothed_root(h, 0.0, dh.HI)[0] == want, (case, i, b)
        tol = 1e-13 + (4e-15 / b if b > 0.0 else 0.0)
        assert abs(root - want) <= tol * max(1.0, want), (case, i, b)
    assert 0 < 2 * failed < len(roots)   # some, and under half


def test_newton_hands_over_to_itp_on_what_it_has_seen(monkeypatch):
    # h's derivative mode declines at the first Newton step or after k, from
    # guesses below and above the root, so ITP takes over with both, one or
    # no end of [0, hi] seen.  The root is NaN exactly where ITP on [0, hi]
    # fails (a snapped h that is 0 at hi bounds nothing), otherwise within
    # the snap band of ITP's root or Newton's relative stop step of it, and
    # no point is evaluated twice, in either of h's modes (the 'cc' h(0)
    # reads F(-b) of its constant, so it costs no transform)
    handed = set()
    bisect = _kernels._bisect
    monkeypatch.setattr(_kernels, "_bisect", lambda h, lo, hi, ylo=None, yhi=None: (
        handed.add((ylo is None, yhi is None)) or bisect(h, lo, hi, ylo, yhi)))
    for name in SMOOTHED_CASES:
        case = dh.CASES[name]
        for f in SMOOTHED_WEIGHTS:
            code = f.kernel_code()
            hi = dh.HI
            assert math.isfinite(_kernels._f_real_scalar(code, -hi))   # never halved
            for b in (0.0, 1e-6, 1e-3, 0.05, 0.4):
                h = _kernels.snapped_fn(code, case.form, float(case.c1),
                                        case.psi_over_phi * dh.PHI, b, f.f0,
                                        _kernels._f_real_scalar(code, 0.0))
                want, _, yhi = bisect(h, 0.0, hi)
                if yhi == 0.0:
                    want = math.nan
                centre = want if math.isfinite(want) else 1.0
                for guess in (0.5 * centre, 0.9 * centre, 1.1 * centre, 3.0 * centre):
                    if not 0.0 < guess < hi:
                        continue
                    for k in (0, 1, 2, 4):
                        points, steps = [], []

                        def declining(x, slope=False):
                            if slope:
                                if len(steps) >= k:
                                    return None
                                steps.append(x)
                            if case.form == "sz" or x != 0.0:
                                points.append(x)
                            return h(x, slope)

                        root = _kernels.search_root(declining, hi, guess)
                        key = (name, f, b, guess, k)
                        assert len(set(points)) == len(points), key
                        if math.isnan(want):
                            assert math.isnan(root), key
                            continue
                        # the snap band of test_search_snap, and Newton's stop
                        tol = 1e-13 + (4e-15 / b if b > 0.0 else 0.0) + _kernels._NEWTON_REL
                        assert abs(root - want) <= tol * max(1.0, want), key
    assert handed >= {(True, True), (True, False), (False, True), (False, False)}


def test_derivative_kernel_declines_where_exp_overflows():
    # a search-layout weight past the search's box, x0 = 10 and alpha = 30.
    # At r = -45 it passes the kernel's first test (-r x0 = 450 <= 690) and
    # no pair is near coincident nodes, but (30 + 45) 10 = 750: cmath.exp
    # overflows, F is +inf, and the kernel declines.  At r = -40.85,
    # e^{708.5} is finite and so is F, but x0 e^{708.5} of alpha is not:
    # the kernel declines too
    code = tf.autocorrelation_code(*optimizer._generator(30.0, 10.0, 1.0))[0]
    x0, folded = code
    assert _search_layout(code)
    for r in (-45.0, -40.85):
        assert -r * x0 <= 690.0
        assert all(abs(gj + r) * x0 >= _kernels.SMALL_W and abs(gk - r) * x0 >= _kernels.SMALL_W
                   for _, gj, gk, _, _ in folded)
        assert _kernels._f_real_scalar_d(code, r) is None
    assert (30.0 + 45.0) * x0 > 710.0 and _kernels._f_real_scalar(code, -45.0) == math.inf
    assert math.isfinite(_kernels._f_real_scalar(code, -40.85))
    assert x0 * math.exp((30.0 + 40.85) * x0) == math.inf


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("k, bracket", [(0, (0.0, 4.0, None, None)),
                                        (1, (0.0, 3.0, None, 2.0)),
                                        (2, (0.0, 2.0, None, 1.0))])
def test_newton_hands_a_non_finite_value_to_itp(monkeypatch, bad, k, bracket):
    # h(x) = x - 1 on [0, 4], whose derivative mode steps by (x - 1)/2, half
    # a Newton step, from x = 3 (3, 2, 1.5, ...) until its value turns
    # non-finite at its (k+1)-th call: ITP takes over on the bracket the
    # steps have seen, with the end values they read
    handed, seen = [], []
    bisect = _kernels._bisect
    monkeypatch.setattr(_kernels, "_bisect", lambda h, lo, hi, ylo=None, yhi=None: (
        handed.append((lo, hi, ylo, yhi)) or bisect(h, lo, hi, ylo, yhi)))

    def h(x, slope=False):
        if not slope:
            return x - 1.0
        seen.append(x)
        return (bad if len(seen) > k else x - 1.0), 0.5 * (x - 1.0)

    assert [h(x) for x in (0.0, 2.0, 3.0)] == [-1.0, 1.0, 2.0]
    root = _kernels.search_root(h, 4.0, 3.0)
    assert handed == [bracket]
    assert root == bisect(h, *bracket)[0]
    assert abs(root - 1.0) <= 1e-13


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
