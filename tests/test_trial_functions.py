"""Trial weights: closed forms, support and f(0), half-plane positivity."""

import cmath
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckezeros import (_kernels, dh, optimizer, oracles, trial_functions as tf, verify,
                        zero_density, zfr)
from heckezeros.errors import DomainError, InvalidGeneratorError, InvalidParameterError

E = math.e


class TestTriangle:
    def test_basic_values(self):
        f = tf.triangle(2.0)
        assert f.laplace(0.0) == pytest.approx(2.0, abs=1e-14)
        assert f(0.0) == pytest.approx(2.0)
        assert f(2.0) == 0.0
        assert f(5.0) == 0.0

    def test_transform_at_minus_one(self):
        # int_0^2 (2-t) e^t dt = e^2 - 3
        f = tf.triangle(2.0)
        assert f.laplace(-1.0).real == pytest.approx(E**2 - 3.0, abs=1e-12)
        quad = oracles.quadrature_laplace(f, -1.0)
        assert abs(f.laplace(-1.0) - quad) < 1e-10

    def test_purely_imaginary_at_i_pi(self):
        # e^{-2 pi i} = 1 collapses the numerator to 2 pi i
        v = tf.triangle(2.0).laplace(1j * math.pi)
        assert v.real == pytest.approx(0.0, abs=1e-14)
        assert v.imag == pytest.approx(-2.0 / math.pi, abs=1e-12)

    def test_complex_point_vs_quadrature(self):
        f = tf.triangle(2.0)
        z = 1.0 + 1.0j
        assert abs(f.laplace(z) - oracles.quadrature_laplace(f, z)) < 1e-10

    def test_series_switch_continuity(self):
        f = tf.triangle(2.0)
        zs = np.array([1e-8, 1e-4, 4.9e-3, 5.1e-3, 6e-3, 0.02], dtype=complex)
        quad = np.array([oracles.quadrature_laplace(f, z) for z in zs])
        assert np.abs(f.laplace(zs) - quad).max() < 1e-11

    def test_large_support_builds(self):
        # the box's pair term needs only x0^2/2; the closed form at 50 digits
        f = tf.triangle(1e9)
        assert (f.x0, f.f0, verify._f2_bound(f)) == (1e9, 1e9, 0.0)
        assert f.laplace(0.0) == 5e17 and f.laplace(1.0) == 1e9 - 1.0
        zs = np.array([1e-12, 3e-9, 1e-8 + 1e-8j, -1e-9])
        want = [4.9983337499166803e+17, 2.2775411870754045e+17,
                5.000012349260112e+16 - 4.499980953105757e+16j, 7.182818284590452e+17]
        assert np.abs(f.laplace(zs) - want).max() <= 1e-12 * 5e17

    def test_overflowing_moments_are_named(self):
        # f(0) = x0 is finite, but the box's pair term at r = 0, its first
        # moment x0^2/2, overflows
        with pytest.raises(InvalidParameterError, match=r"s=1e\+200"):
            tf.triangle(1e200)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_support(self, bad):
        with pytest.raises(InvalidParameterError):
            tf.triangle(bad)


class TestAutocorrelation:
    def test_box_generator_gives_triangle(self):
        box = tf.autocorrelation(alpha=0.0, c0=1.0, c1=0.0, beta=0.0, s=1.0)
        tri = tf.triangle(1.0)
        assert (box.x0, box.f0) == (tri.x0, tri.f0) == (1.0, 1.0)
        assert box.laplace(0.0).real == pytest.approx(0.5, abs=1e-14)
        ts = np.linspace(-0.5, 1.5, 101)
        assert np.abs(box(ts) - tri(ts)).max() < 1e-13
        zs = np.array([0.3 - 2j, -1 + 0.5j, 2 + 3j, 1e-7, -0.5 - 0.7j])
        assert np.abs(box.laplace(zs) - tri.laplace(zs)).max() < 1e-12

    def test_exponential_generator_vs_quadrature(self):
        f = tf.autocorrelation(alpha=0.5, c0=1.0, c1=0.0, beta=0.0, s=1.0)
        for z in (-0.3, 0.0, 1.2 + 0.4j):
            assert abs(f.laplace(z) - oracles.quadrature_laplace(f, z)) < 1e-10

    def test_cosine_generator_vs_quadrature_grid(self):
        f = tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5)
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = complex(rng.uniform(-3, 3), rng.uniform(-10, 10))
            cf = f.laplace(z)
            assert abs(cf - oracles.quadrature_laplace(f, z)) < 1e-10 * (1 + abs(cf))

    def test_removable_singularity_direction(self):
        # z = -alpha -+ i beta makes one pair denominator vanish
        f = tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5)
        for z in (0.8 - 2j, 0.8 - 2j + 1e-9, 0.8 + 2j, 0.8):
            assert abs(f.laplace(z) - oracles.quadrature_laplace(f, z)) < 1e-10

    def test_f0_is_generator_square_integral(self):
        f = tf.autocorrelation(alpha=-0.4, c0=1.0, c1=0.5, beta=1.0, s=2.0)
        us = np.linspace(0, 2.0, 200_001)
        g = np.exp(-0.4 * us) * (1.0 + 0.5 * np.cos(us))
        assert f.f0 == pytest.approx(np.trapezoid(g * g, us), rel=1e-8)

    def test_sup_equals_f0(self):
        f = tf.autocorrelation(alpha=-0.4, c0=1.0, c1=0.5, beta=1.0, s=2.0)
        ts = np.linspace(0, 2.0, 2001)
        assert f(ts).max() <= f.f0 + 1e-12

    def test_negative_generator_rejected(self):
        with pytest.raises(InvalidGeneratorError):
            tf.autocorrelation(alpha=0.0, c0=0.1, c1=1.0, beta=2.0, s=3.0)

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidGeneratorError):
            tf.autocorrelation(alpha=0.0, c0=0.0, c1=0.0, beta=0.0, s=1.0)

    @pytest.mark.parametrize("params, named", [
        # e^{2 alpha s} overflows (cmath.exp raises), so f(0) = int g^2 is not finite
        ({"alpha": 20.0}, "alpha=20.0, s=40.0"), ({"alpha": 9.0}, "alpha=9.0, s=40.0"),
        # the phase 2 beta s of the pair (g, g) overflows (cmath.exp: ValueError)
        ({"c1": 1.0, "beta": 1e307}, r"beta=1e\+307, s=40.0"),
        # 2 alpha = -inf rounds K to -0j and f(0) to 0.0, where f(0) is tiny
        ({"alpha": -1e308}, r"alpha=-1e\+308, s=40.0")], ids=["20.0", "9.0", "beta", "-1e308"])
    def test_overflowing_generator_is_named(self, params, named):
        with pytest.raises(InvalidParameterError, match=named):
            tf.autocorrelation(s=40.0, **params)

    def test_overflowing_quotient_is_named(self):
        # e^{2 alpha s} = e^700 is finite, K = (e^700 - 1)/(2 alpha) is not
        with pytest.raises(InvalidParameterError, match=r"alpha=3.5e-08, s=10000000000.0"):
            tf.autocorrelation(alpha=3.5e-8, s=1e10)

    def test_overflowing_moment_series_is_named(self):
        # |2 alpha s| = 2e-3: f(0) is about s, but the three-node series of the
        # pair term at r = -alpha, about s^2/2, overflows
        with pytest.raises(InvalidParameterError, match=r"s=1e\+200"):
            tf.autocorrelation(alpha=1e-203, s=1e200)

    def test_large_support_series_weight_builds(self):
        # |2 alpha s| = 2e-3: the series moments stay finite up to s^8 = 1e72
        alpha, s = 1e-12, 1e9
        f = tf.autocorrelation(alpha=alpha, s=s)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a, S = mpmath.mpf(alpha), mpmath.mpf(s)

            def E(w):
                return (mpmath.exp(w * S) - 1) / w

            def F(z):   # (K - E(s; alpha - z))/(alpha + z), K = E(s; 2 alpha)
                z = mpmath.mpf(z)
                if z == -a:   # the removable singularity: M_1 at 2 alpha
                    return S * mpmath.exp(2 * a * S) / (2 * a) - E(2 * a) / (2 * a)
                return (E(2 * a) - E(a - z)) / (a + z)

            eps4 = 4.0 * 2.0 ** -52
            assert abs(f.f0 - float(E(2 * a))) <= eps4 * f.f0
            # -alpha and -1.5e-12 take pair_near's three-node series
            for z in (0.0, -alpha, -1.5e-12, 1e-9, 3e-9, -2e-9):
                want = float(F(z))
                assert abs(f.laplace(z).real - want) <= eps4 * abs(want), z
                assert abs(f.laplace(np.array([z]))[0].real - want) <= eps4 * abs(want), z

    def test_non_finite_moments_rejected(self):
        # 2 alpha s = 709: f(0) = K = 1.2e307 is finite, but the pair term at
        # r = -alpha, the first moment (s e^{2 alpha s} - K)/(2 alpha) = 1.2e309,
        # is not
        with pytest.raises(InvalidParameterError, match=r"alpha=3\.545, s=100\.0"):
            tf.autocorrelation(alpha=3.545, s=100.0)


@pytest.mark.parametrize("seed", range(6))
def test_moment_series_matches_mpmath(seed):
    """The two moments the kernels form inside the series disc
    0 < |a s| < SMALL_W, against Kummer's function at 50 digits,
    M_n = s^(n+1)/(n+1) 1F1(n+1; n+2; a s): K = M_0 (``exp_quotient``) and
    M_1, the pair term at its coincidence point z = -g_j (``pair_near``)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    worst = 0.0
    with mpmath.workdps(50):
        for i in range(40):
            s = float(rng.uniform(0.2, 40.0))
            w = 10.0 ** rng.uniform(-14.0, math.log10(0.99 * _kernels.SMALL_W))
            w *= (1.0, -1.0, cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3]
            a = complex(w / s)
            K = _kernels.exp_quotient(a, s)
            for n, m in enumerate((K, _kernels.pair_near(K, a / 2, a / 2, -a / 2, s))):
                want = (mpmath.mpf(s) ** (n + 1) / (n + 1)
                        * mpmath.hyp1f1(n + 1, n + 2, mpmath.mpc(a) * s))
                worst = max(worst, float(abs(mpmath.mpc(m) - want) / abs(want)))
    assert worst <= 4.0 * 2.0 ** -52, worst


def _k_array(a, s):
    """K = (e^{as} - 1)/a in NumPy arrays, s at a = 0, kept as the reference
    for ``_kernels.exp_quotient`` outside the series disc."""
    a = np.asarray(a, dtype=complex)
    zero = a == 0
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(zero, s, (np.exp(a * s) - 1.0) / np.where(zero, 1.0, a))


def _mp_pair(g_j, g_k, z, s, mp):
    """The pair term (E(s; g_j + g_k) - E(s; g_k - z))/(g_j + z) in mpmath,
    E(s; w) = (e^{w s} - 1)/w, and its limit M_1 at z = -g_j."""
    g_j, g_k, z, s = mp.mpc(g_j), mp.mpc(g_k), mp.mpc(z), mp.mpf(s)

    def E(w):
        return s if w == 0 else mp.expm1(w * s) / w

    a = g_j + g_k
    if g_j + z == 0:
        return s * s / 2 if a == 0 else (s * mp.exp(a * s) - E(a)) / a
    return (E(a) - E(g_k - z)) / (g_j + z)


def _in_series_disc(a, s):
    return a != 0 and abs(a * s) < _kernels.SMALL_W


def _seeded_weights(seed, n=60):
    """Seeded generator parameters: search weights of both profiles with s up
    to 40, alpha = 0, a tiny real 2 alpha s (the series), c0 = 0 (with
    beta s < pi/2, so g >= 0) and c1 = 0."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        s = float(rng.uniform(0.2, 40.0))
        alpha = float(rng.uniform(-4.0, 4.0)) / (1.0, s)[i % 2]
        beta = (1.0, 0.5)[i % 2] * math.pi / s
        yield {"alpha": alpha, "c0": 1.0, "c1": 1.0, "beta": beta, "s": s}
        yield {"alpha": 0.0, "c0": 1.0, "c1": 1.0, "beta": beta, "s": s}
        yield {"alpha": float(rng.uniform(-0.4, 0.4)) * _kernels.SMALL_W / s,
               "c0": 1.0, "c1": float(rng.uniform(-1.0, 1.0)), "beta": 3.0 * beta, "s": s}
        yield {"alpha": alpha, "c0": 0.0, "c1": 1.0, "beta": 0.45 * beta, "s": s}
        yield {"alpha": alpha, "c0": 1.0, "c1": 0.0, "beta": beta, "s": s}


@pytest.mark.parametrize("seed", range(4))
def test_python_moments_equal_numpy_arrays(seed):
    """The moment a code holds, K = M_0 from ``_kernels.exp_quotient``, is
    what NumPy arrays give, to the bit, at a = 0 and outside the series
    disc."""
    taken = {"zero": 0, "series": 0, "re": 0, "im": 0}
    for params in _seeded_weights(seed):
        s, folded = tf.autocorrelation(**params).kernel_code()
        for _, g_j, g_k, K, _ in folded:
            a = g_j + g_k
            assert repr(K) == repr(_kernels.exp_quotient(a, s)), (params, a)
            if _in_series_disc(a, s):
                taken["series"] += 1
                continue
            assert K == complex(_k_array(a, s)), (params, a)
            taken["zero" if a == 0 else "re" if abs(a.real) >= abs(a.imag) else "im"] += 1
    assert min(taken.values()) > 0, taken


def _series_points(code):
    """The real r = -Re g_j of every folded pair whose pair series runs there."""
    x0, folded = code
    return [-g_j.real for _, g_j, *_, far in folded
            if not far and abs(g_j.imag) * x0 < _kernels.SMALL_W]


def test_codes_are_immutable():
    """A code is hashable and stays equal to an uncached build of the same
    parameters after F has run its pair series: the seed grid of the family
    search over both profiles, and three plain weights."""
    params = [optimizer._generator(alpha, s, mult) for alpha in optimizer.FAMILY_GRID["alpha"]
              for s in optimizer.FAMILY_GRID["s"] for mult in optimizer.PROFILES]
    params += [(alpha, 1.0, 0.0, 0.0, 2.0) for alpha in (0.5, -1.3, 0.0)]
    series = 0
    for p in params:
        code, f0 = tf.autocorrelation_code(*p)
        h = hash((code, f0))
        for r in _series_points(code):
            series += 1
            _kernels.f_real_scalar(code, r)
            _kernels.f_array(code, np.array([r, r + 0.5j]))
        assert hash((code, f0)) == h
        assert (code, f0) == tf._build(*map(float, p)), p
    assert series >= len(params)


class TestLazyMoments:
    """A build forms K = M_0 and proves M_1, the pair term at its coincidence
    point, finite from the bound s E(s; 2 alpha) (``tf._pair_terms_finite``),
    forming it only where that bound does not serve; no code holds a higher
    moment, and the kernels form none."""

    def test_search_builds_leave_them_unread(self, monkeypatch):
        # a search weight's build forms K of its three exponents, no more:
        # the bound proves their pair terms at coincidence finite
        asked = []
        for name in ("exp_quotient", "pair_near"):
            fn = getattr(_kernels, name)
            monkeypatch.setattr(_kernels, name,
                                lambda *args, _fn=fn, _name=name: asked.append(_name) or _fn(*args))
        params = optimizer._generator(0.7, 3.2, 1.0)
        code, f0 = tf._build(*map(float, params))
        assert asked == ["exp_quotient"] * 3
        assert all(len(pair) == 5 for pair in code[1])
        assert f0 == tf.autocorrelation(*params).f0

    #: generator layouts of 1, 2 and 3 terms: (c0, c1, beta) at s = 1, beta
    #: scaled by 1/s; the 3-term ones are the search's two profiles
    LAYOUTS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.8), (1.0, 1.0, math.pi), (1.0, 1.0, math.pi / 2))

    def test_builds_keep_the_per_pair_bits(self, monkeypatch):
        # over both search boxes, and across the overflow edge of e^{2 alpha s}
        # past them, a build refuses where one that forms every pair term
        # refuses, and otherwise gives its code and f(0) bit for bit; every
        # pair term the bound skips is finite
        alphas = np.linspace(-4.0, 4.0, 17).tolist() + [-0.37, 0.05, 2.6]
        supports = (0.2, 0.6, 1.2, 3.2, 10.0, 23.7, 40.0)
        points = [(a, s) for a in alphas for s in supports]
        points += [(float(x / (2.0 * s)), s) for s in (0.2, 3.0, 40.0, 100.0, 1e6, 1e150)
                   for x in np.linspace(-1400.0, 709.9, 61)]
        builds = []
        for alpha, s in points:
            for c0, c1, beta in self.LAYOUTS:
                params = (alpha, c0, c1, beta / s, s)
                try:
                    builds.append((params, tf._build(*params)))
                except InvalidParameterError as exc:
                    builds.append((params, str(exc)))
        skipped = refused = 0
        for params, got in builds:
            if isinstance(got, str):
                refused += 1
                continue
            (s, folded), _ = got
            K2 = folded[len(folded) == 2][3]
            if tf._pair_terms_finite(params[0], s, K2):
                skipped += 1
                for _, g_j, g_k, K, _ in folded:
                    assert cmath.isfinite(_kernels.pair_near(K, g_j, g_k, -g_j, s)), params
        monkeypatch.setattr(tf, "_pair_terms_finite", lambda *args: False)
        for params, got in builds:
            try:
                want = tf._build(*params)
            except InvalidParameterError as exc:
                want = str(exc)
            assert repr(got) == repr(want), params
        assert skipped > 1000 and refused > 0, (skipped, refused)

    @pytest.mark.parametrize("alpha", [0.5, -1.3, 0.0])
    def test_plain_weight_at_minus_alpha(self, alpha):
        # r = -alpha puts the pair's g_j + r at 0: the scalar kernel and the
        # array path both take the series, whose value there is M_1 at 2 alpha
        mpmath = pytest.importorskip("mpmath")
        f = tf.autocorrelation(alpha=alpha, s=2.0)
        with mpmath.workdps(50):
            a = 2 * mpmath.mpf(alpha)
            want = float(2 if a == 0 else (2 * mpmath.exp(2 * a) - mpmath.expm1(2 * a) / a) / a)
        got = (_kernels.f_real_scalar(f.kernel_code(), -alpha),
               f.laplace(np.array([-alpha, 0.3]))[0].real)
        assert max(abs(g - want) for g in got) <= 4.0 * 2.0 ** -52 * abs(want), (got, want)

    def test_f_array_near_minus_g_j(self):
        # every point is inside a pair's series disc, off the real axis too
        f = tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5)
        g_j = [g for _, g_j, *_ in f.kernel_code()[1] for g in (g_j, g_j.conjugate())]
        edge = _kernels.SMALL_W / 2.5
        zs = np.array([-g + d * edge * np.exp(0.7j) for g in g_j for d in (0.0, 0.3, 0.9)])
        for z, v in zip(zs, f.laplace(zs)):
            assert abs(v - oracles.quadrature_laplace(f, z)) < 1e-10 * (1 + abs(v)), z

    @pytest.mark.parametrize("s", [14.596110908568308, 40.0, 3.0, 100.0])
    def test_builds_fail_exactly_where_eager_moments_overflow(self, s):
        # across the overflow edge of e^{2 alpha s}, a cosine weight that
        # builds has a finite F within 4 eps (1 + |u|) of each pair term's
        # size of 50 digits at r = 0 and at r = -alpha, the real -g_j, and a
        # refused one has f(0) or a pair term at its coincidence point (M_0
        # and M_1 of some exponent) above 1e306; s = 100 refuses on M_1
        mpmath = pytest.importorskip("mpmath")
        beta, eps = 0.0645704737365128, 2.0 ** -52
        built = refused = 0
        with mpmath.workdps(50):
            S = mpmath.mpf(s)

            def E(w):
                return S if w == 0 else mpmath.expm1(w * S) / w

            for two_alpha_s in np.linspace(460.0, 709.9, 101):
                alpha = float(two_alpha_s / (2.0 * s))
                gs = [(mpmath.mpf(c), mpmath.mpc(alpha, k * beta))
                      for c, k in ((1.0, 0), (0.5, 1), (0.5, -1))]
                pairs = [(c_j * c_k, g_j, g_k) for c_j, g_j in gs for c_k, g_k in gs]
                try:
                    f = tf.autocorrelation(alpha=alpha, c0=1.0, c1=1.0, beta=beta, s=s)
                except InvalidParameterError:
                    refused += 1
                    f0 = sum(c * E(g_j + g_k) for c, g_j, g_k in pairs).real
                    m1 = max(abs((S * mpmath.exp((g_j + g_k) * S) - E(g_j + g_k)) / (g_j + g_k))
                             for _, g_j, g_k in pairs)
                    assert max(f0, m1) > 1e306, alpha
                    continue
                built += 1
                for r in (0.0, -alpha):
                    terms = [(c * _mp_pair(g_j, g_k, r, S, mpmath), abs((g_j + g_k) * S))
                             for c, g_j, g_k in pairs]
                    want = sum(t for t, _ in terms).real
                    tol = 4.0 * eps * sum(abs(t) * (1.0 + u) for t, u in terms)
                    for got in (f.laplace(r).real, f.laplace(np.array([r]))[0].real):
                        assert math.isfinite(got) and abs(got - want) <= tol, (alpha, r)
        assert built > 0 and refused > 0


def test_search_weights_build_without_numpy(monkeypatch):
    """Weights of the family search, at its seed grid and its coarse scans'
    alphas, build in plain Python and have no exponent in the series disc."""
    monkeypatch.setattr(tf, "np", None)     # any NumPy call raises
    alphas = set(optimizer.FAMILY_GRID["alpha"]) | {-4.0 + 8.0 * i / 12 for i in range(13)}
    for alpha in sorted(alphas | {-3.9, -0.37, 0.05, 2.6}):
        for s in optimizer.FAMILY_GRID["s"] + (0.2, 10.0, 23.7, 40.0):
            for mult in optimizer.PROFILES:
                s_, folded = tf._build(*map(float, optimizer._generator(alpha, s, mult)))[0]
                assert not any(_in_series_disc(g_j + g_k, s_) for _, g_j, g_k, *_ in folded)


class TestScalarRoute:
    F = tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5)

    def test_real_scalars_take_the_kernel(self, monkeypatch):
        kernel, seen = _kernels.f_real_scalar, []
        monkeypatch.setattr(_kernels, "f_real_scalar",
                            lambda *args: seen.append(args[-1]) or kernel(*args))
        for z in (0, -1, 0.5, np.float64(-0.25), np.float32(0.75)):
            v = self.F.laplace(z)
            assert type(v) is complex and v.imag == 0.0
            # folded Python arithmetic against the array path (test_kernels.SCALAR_REL)
            w = self.F.laplace(np.array([z], dtype=float))[0].real
            assert abs(v.real - w) <= 2e-13 * abs(w)
        assert seen == [0.0, -1.0, 0.5, -0.25, 0.75]
        for z in (0.5 + 0j, np.complex128(0.5), np.array(0.5), np.array([0.5])):
            self.F.laplace(z)
        assert len(seen) == 5

    def test_plugin_without_code_uses_its_own_laplace(self):
        clone = tf.TrialFunction("custom", {}, self.F.x0, self.F.f0, self.F,
                                 lambda z: complex(42.0, 1.0))
        assert clone.laplace(0.5) == complex(42.0, 1.0)
        assert clone.laplace(np.float64(-1.0)) == complex(42.0, 1.0)
        assert clone.laplace_real(0.5) == 42.0 and type(clone.laplace_real(0.5)) is float

    def test_laplace_real_refuses_nan_and_keeps_the_infinities(self):
        # triangle(2.0).laplace_real(nan) returned nan, as did the cosine weight
        clone = tf.TrialFunction("custom", {}, self.F.x0, self.F.f0, self.F, self.F._laplace)
        for f in (tf.triangle(2.0), self.F, clone):
            for r in (math.nan, np.float64(math.nan)):
                with pytest.raises(DomainError) as err:
                    f.laplace_real(r)
                assert str(err.value) == "laplace_real requires r that is not NaN, got r=nan"
        for f in (tf.triangle(2.0), self.F):
            assert (f.laplace_real(math.inf), f.laplace_real(-math.inf)) == (0.0, math.inf)

    def test_laplace_real_is_the_kernels_float(self):
        for z in (0, -1, 0.5, np.float64(-0.25), -100.0):
            v = self.F.laplace_real(z)
            assert type(v) is float
            assert v == _kernels.f_real_scalar(self.F.kernel_code(), float(z))
            assert v == self.F.laplace(z).real

    def test_solvers_read_real_points_through_laplace_real(self, monkeypatch):
        # one route to F at a real point: no solver calls laplace there, for
        # a coded weight or a plug-in
        clone = tf.TrialFunction("custom", {}, self.F.x0, self.F.f0, self.F,
                                 self.F._laplace)
        readers = (
            lambda f: dh.solve_smoothed("sz-lp-principal", f, 0.02),
            lambda f: dh.solve_smoothed("cc-l2-chi2-principal-real", f, 0.1),
            lambda f: zero_density.zd_preconditions(zero_density.ZdQuery(f, 0.2, 0.05)),
            lambda f: zfr.zfr_order_ge6(f, lam_star=2.0),
            lambda f: tf.repel_reduce(f, 1.0, 0.5))
        want = [[read(f) for read in readers] for f in (self.F, clone)]

        def no_laplace(f, z):
            raise AssertionError("laplace was called")
        monkeypatch.setattr(tf.TrialFunction, "laplace", no_laplace)
        assert [[read(f) for read in readers] for f in (self.F, clone)] == want


class TestBuildFamily:
    def test_builds_with_valid_keys(self):
        assert tf.build_family("triangle", x0=2.0).x0 == 2.0

    @pytest.mark.parametrize("name,params,words", [
        ("triangle", {}, ["missing", "x0"]),
        ("triangle", {"x0": 2.0, "bogus": 1.0}, ["unexpected", "bogus"]),
        ("autocorrelation", {"alpha": 0.1, "x0": 1.0}, ["unexpected", "x0"]),
        ("nope", {}, ["unknown family"]),
    ])
    def test_bad_keys_name_the_problem(self, name, params, words):
        with pytest.raises(InvalidParameterError) as err:
            tf.build_family(name, **params)
        assert all(w in str(err.value) for w in words)


class TestConditionTwo:
    @pytest.mark.parametrize("make", [
        lambda: tf.triangle(2.0),
        lambda: tf.triangle(0.3),
        lambda: tf.autocorrelation(alpha=0.7, s=1.5),
        lambda: tf.autocorrelation(alpha=-1.2, c0=1.0, c1=1.0, beta=1.5, s=4.0),
    ])
    def test_imaginary_axis_grid(self, make):
        assert tf.condition2_min(make()) >= -1e-12

    def test_triangle_minimum_near_multiples_of_pi(self):
        # Re F(iy) = (1 - cos(2y))/y^2 for the width-2 triangle: zeros at k pi
        f = tf.triangle(2.0)
        ys = np.linspace(0.5, 100, 4001)
        vals = f.laplace(1j * ys).real
        expect = (1 - np.cos(2 * ys)) / ys**2
        assert np.abs(vals - expect).max() < 1e-12
        y_min = ys[np.argmin(vals)]
        assert min(abs(y_min / math.pi - round(y_min / math.pi)), 1.0) < 0.05


def _f2_on_grid(f, n):
    """f'' at n points of [0, s], both ends included, summed over the folded
    pairs (c, g, a): Re c e^{gt} [g^2 E(s - t; a) + (a - 2g) e^{a(s - t)}]."""
    s, folded = f.kernel_code()
    ts = np.linspace(0.0, s, n)
    out = np.zeros(n)
    for c, g, a in tf._t_terms(folded):
        x = s - ts
        out += (c * np.exp(g * ts) * (g * g * _kernels.E(x, a) + (a - 2.0 * g) * np.exp(a * x))).real
    return ts, out


class TestRemainderBound:
    """The split F(z) = f(0)/z + F_0(z) of verify's remainder suite, with
    verify's own bound on sup |f''|."""

    @staticmethod
    def split(f, z):
        return verify._remainder_split(f, z, verify._f2_bound(f))

    @pytest.mark.parametrize("index", range(6))
    def test_f2_bound_is_proved(self, index):
        # verify's B bounds |f''| on a 100x finer grid, is no looser than the
        # 2001-point maximum plus the 5% the weights once added, and is 0 for
        # the triangles and the box
        f = verify._sample_families()[index]
        B = verify._f2_bound(f)
        ts, f2 = _f2_on_grid(f, 2001)
        assert np.abs(_f2_on_grid(f, 200_001)[1]).max() <= B <= 1.05 * np.abs(f2).max()
        assert (B == 0.0) == (index <= 2)
        # the f'' summed here is f'': central second differences of f agree
        d = 1e-4
        t = ts[2:-2]
        fd = (f(t + d) - 2.0 * f(t) + f(t - d)) / (d * d)
        assert np.abs(fd - f2[2:-2]).max() <= 1e-6 * (1.0 + B)

    def test_triangle_at_ten(self):
        F0, ok = self.split(tf.triangle(2.0), 10.0)
        assert ok
        assert abs(F0) <= 0.02 + 1e-12     # A = 2, |z|^2 = 100

    def test_triangle_unit_values(self):
        F0, ok = self.split(tf.triangle(1.0), 1.0)
        assert F0.real == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-13)
        assert ok

    def test_autocorrelation_grid(self):
        _, ok = self.split(tf.autocorrelation(alpha=0.0, s=1.0), 5.0 + 5.0j)
        assert ok

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            self.split(tf.triangle(1.0), -1.0)
        with pytest.raises(DomainError):
            self.split(tf.triangle(1.0), 1j)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(1.0, math.inf),
                                   complex(math.inf, 0.0), complex(1.0, math.nan)])
    def test_non_finite_z_rejected(self, z):
        # nan and 1 + inf j returned ((nan+nanj), False), inf returned (0j, True)
        with pytest.raises(DomainError, match="requires a finite z with Re z > 0"):
            self.split(tf.triangle(1.0), z)


class TestRepelReduce:
    def test_zero_shift(self):
        assert tf.repel_reduce(tf.triangle(2.0), 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_branches(self):
        f = tf.triangle(2.0)
        expect = (f.laplace(-1.0) - f.laplace(-0.5)).real
        assert tf.repel_reduce(f, 1.0, 0.5) == pytest.approx(expect, abs=1e-13)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.1), (0.1, math.nan), (-0.1, 0.1),
                                      (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_bad_shift_rejected(self, a, b):
        # a NaN shift and a = inf returned NaN
        with pytest.raises(DomainError):
            tf.repel_reduce(tf.triangle(2.0), a, b)

    def test_overflowing_transform_gives_inf(self):
        # F(-1000) and F(-990) are both inf: inf - inf gave NaN
        assert tf.repel_reduce(tf.triangle(1.0), 1000.0, 10.0) == math.inf

    def test_boundary_case_agrees(self):
        f = tf.triangle(1.0)
        v1 = tf.repel_reduce(f, 1.0, 1.0)
        assert v1 == pytest.approx((f.laplace(-1.0) - f.laplace(0.0)).real, abs=1e-13)

    @given(a=st.floats(0.0, 3.0), b=st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_dominates_oscillatory_expression(self, a, b):
        f = tf.triangle(1.3)
        ys = np.linspace(-40, 40, 401)
        lhs = (f.laplace(-a + 1j * ys) - f.laplace(1j * ys)
               - f.laplace(b - a + 1j * ys)).real
        assert lhs.max() <= tf.repel_reduce(f, a, b) + 1e-10


def test_plugin_interface_round_trip():
    """A custom family built from raw callables runs through every reader of
    x0 and f(0) as the built-in weight it copies does."""
    base = tf.triangle(1.5)
    clone = tf.TrialFunction("custom", {"note": 1.0}, base.x0, base.f0,
                             lambda t: base(t), lambda z: base.laplace(z))
    assert clone.kernel_code() is None
    xs = np.linspace(0.0, 5.0, 11)
    readers = {
        "solve_smoothed": lambda f: dh.solve_smoothed("sz-lp-principal", f, 0.02).lambda_star,
        "n_lambda_bound": lambda f: zero_density.n_lambda_bound(
            zero_density.ZdQuery(f, 0.2, 0.05, phi=0.1)),
        "zfr_order_ge6": lambda f: zfr.zfr_order_ge6(f, lam_star=2.0).lambda1,
        "quadrature_laplace": lambda f: oracles.quadrature_laplace(f, 0.7 - 2.0j),
        "smoothed_h": lambda f: dh.smoothed_h("sz-lp-principal", f, 0.02)(xs),
    }
    for name, read in readers.items():
        assert np.abs(read(clone) - read(base)).max() <= 1e-10, name


class TestPluginConstructor:
    """A plug-in weight is its support end x0, f(0) and two callables."""

    @pytest.mark.parametrize("x0,f0,named", [
        (math.inf, 1.0, "x0"), (math.nan, 1.0, "x0"), (0.0, 1.0, "x0"), (-1.0, 1.0, "x0"),
        ("1.5", 1.0, "x0"), (1j, 1.0, "x0"), (types.SimpleNamespace(x0=1.5, f0=1.5), 1.0, "x0"),
        (1.5, math.inf, "f(0)"), (1.5, math.nan, "f(0)"), (1.5, -0.5, "f(0)"),
        (1.5, "1", "f(0)"), (1.5, None, "f(0)"),
    ])
    def test_rejects_bad_support_or_f0(self, x0, f0, named):
        # x0 = inf gave a finite repulsion and density bound, and f0 = inf a
        # misleading "no repulsion provable"; a summary object in the x0 slot
        # is what a call in the old (family, params, content, ...) order passes
        base = tf.triangle(1.5)
        with pytest.raises(InvalidParameterError) as err:
            tf.TrialFunction("custom", {}, x0, f0, base, base.laplace)
        assert str(err.value).startswith({"x0": "support end x0", "f(0)": "f(0)"}[named])
