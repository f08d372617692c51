"""Scalar kernels against the vectorized reference paths, and the bisection contract."""

import math

import numpy as np
import pytest

from heckezeros import _kernels, dh, p4, trial_functions as tf, zfr


def test_backend_reports():
    assert _kernels.backend() == "numpy"


def _real_points(f):
    """A grid, 0, both sides of each series switch, and moderate negatives."""
    code = f.kernel_code()
    edge = _kernels.SMALL_W / code[1]
    pts = list(np.linspace(-8.0, 8.0, 161)) + [0.0, -0.25, -3.0, -20.0 / code[1]]
    pts += [c * (1.0 + d) for c in (edge, -edge) for d in (-1e-6, 1e-6)]
    # the pair series switch at |g_j + r| x0 = 1e-2, the E series at |g_k - r| x0 = 1e-2
    for centre in [-g.real for g in code[5]] + [g.real for g in code[6]]:
        pts += [centre + d * edge for d in (0.0, -0.5, 0.5, -0.999, 0.999, -1.001, 1.001, -3.0, 3.0)]
    return pts


def test_scalar_transform_matches_vectorized_path():
    # the autocorrelation kernel repeats the array path's arithmetic exactly;
    # the triangle's series is summed in another order, so one ulp may differ
    fams = [tf.triangle(2.0), tf.triangle(0.7), tf.triangle(14.0),
            tf.autocorrelation(alpha=0.5, s=1.0),
            tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5),
            tf.autocorrelation(alpha=-0.3, c0=0.0, c1=1.0, beta=0.5, s=3.0),
            tf.autocorrelation(alpha=1.5, c0=1.0, c1=1.0, beta=0.3, s=9.0)]
    for f in fams:
        rs = _real_points(f)
        vector = f.laplace(np.array(rs)).real
        for r, v in zip(rs, vector):
            for scalar in (_kernels.f_real_scalar(*f.kernel_code(), float(r)), f.laplace(r)):
                assert complex(scalar).imag == 0.0
                if f.family == "autocorrelation":
                    assert complex(scalar).real == v, (f, r)
                else:
                    assert abs(complex(scalar).real - v) <= np.spacing(abs(v)), (f, r)


def test_overflowing_pair_gives_plus_infinity():
    # (alpha - r) s = 760 overflows e^{(g_k - r) x0} while -r x0 = 680 <= 690
    f = tf.autocorrelation(alpha=4.0, s=20.0)
    assert _kernels.f_real_scalar(*f.kernel_code(), -34.0) == math.inf
    assert f.laplace(-34.0) == complex(math.inf, 0.0)


def test_grid_kernel_matches_numpy_implementation():
    ts = np.linspace(-50.0, 50.0, 4001)
    q = p4.PositivityQuery(0.5, 0.5, 1.7408, 1.316, 1.4387, 1.7825)
    mn, at = _kernels.p4_combo_min(q.A, q.B, q.C, q.a, q.b, q.c, ts)
    ref = p4.p4_combo(q, ts)
    assert mn == pytest.approx(ref.min(), abs=1e-13)
    assert at == ts[int(np.argmin(ref))]


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
        lambda phi, lo, hi: _kernels.smoothed_root(
            _TRIANGLE.kernel_code(), 0, 2.0, 4.0 * phi, 0.01, lo, hi, 200),
        dh.smoothed_h("sz-lp-quadratic", _TRIANGLE, 0.01)),
    "plugin": (
        lambda phi, lo, hi: _kernels._bisect(
            lambda x: float(dh.smoothed_h("sz-lp-quadratic", _TRIANGLE, 0.01, phi)(x)),
            lo, hi, 200),
        dh.smoothed_h("sz-lp-quadratic", _TRIANGLE, 0.01)),
    "poly_root": (
        lambda phi, lo, hi: _kernels.poly_root(1, 1.097, 0.7788, 0.1227, 2.0 * phi,
                                               lo, hi, 200),
        dh.poly_h("cc-lp-nonprincipal", 0.1227, 1.097, 0.7788)),
    "zfr_root": (
        lambda phi, lo, hi: _kernels.zfr_root(
            float(_ORDER234.coeffs[0]), float(_ORDER234.coeffs[1]), float(_ORDER234.B),
            0.9421, phi, lo, hi, 200),
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
