"""The brute-force verification backends themselves."""

import math

import numpy as np
import pytest

from heckezeros import oracles, trial_functions as tf
from heckezeros.errors import NoRootError, OracleFailureError

#: transform points like those the oracle benchmark checks (|z| x0 <= ~50)
_ZS = [complex(a, b) for a in (-2.0, 0.5, 2.5) for b in (-7.0, 1.0, 9.0)
       if (a, b) != (0.5, 1.0)]


def _cosine_weight():
    return tf.autocorrelation(alpha=0.9, c0=1.0, c1=1.0, beta=1.5 * math.pi / 4.5, s=4.5)


class _CountingWeight:
    """Stand-in weight that counts the integrand nodes it is asked for."""

    def __init__(self, f):
        self.f, self.content, self.nodes = f, f.content, 0

    def __call__(self, ts):
        self.nodes += len(ts)
        return self.f(ts)


def test_romberg_exact_on_septic():
    assert oracles.romberg_selftest() <= 1e-15


def test_quadrature_triangle_reference_points():
    f = tf.triangle(2.0)
    assert oracles.quadrature_laplace(f, 0.0).real == pytest.approx(2.0, abs=1e-12)
    assert oracles.quadrature_laplace(f, -1.0).real == pytest.approx(np.e**2 - 3, abs=1e-10)


def test_quadrature_highly_oscillatory():
    # ~300 oscillation periods across the support; the rule subdivides until
    # it resolves them (the default 1e-13 target needs |z| x0 below a few
    # hundred, so a looser explicit target is passed here)
    f = tf.triangle(2.0)
    z = 1j * 1e3
    val = oracles.quadrature_laplace(f, z, abs_tol=1e-9)
    assert abs(val - f.laplace(z)) < 1e-7


@pytest.mark.parametrize("f", [tf.triangle(2.0), _cosine_weight()], ids=repr)
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_quadrature_not_fooled_by_aliased_nodes(f, k):
    # at z = 2 pi i k / x0 every node of the first levels sits at
    # e^{-zt} = 1, where two coarse rules agree on int f instead of F(z)
    z = 2j * math.pi * k / f.content.x0
    assert abs(oracles.quadrature_laplace(f, z) - f.laplace(z)) < 1e-10


def test_quadrature_triangle_at_aliased_point_matches_closed_form():
    val = oracles.quadrature_laplace(tf.triangle(2.0), 4j * math.pi)
    assert abs(val - (-1j / (2.0 * math.pi))) < 1e-10


@pytest.mark.parametrize("z", _ZS, ids=str)
def test_quadrature_node_count(z):
    # machine-independent cost: nested levels reuse every node, and the
    # extrapolation converges by level 11 at these points
    f = _CountingWeight(_cosine_weight())
    val = oracles.quadrature_laplace(f, z)
    assert f.nodes <= 2 ** 11 + 1
    assert abs(val - f.f.laplace(z)) < 1e-10 * (1.0 + abs(val))


def test_quadrature_cap_raises():
    # h |Im z| <= pi/2 needs 2**17 panels on [0, 2] here, past the 2**15 cap
    with pytest.raises(OracleFailureError):
        oracles.quadrature_laplace(tf.triangle(2.0), 1e5j)


def test_scan_root_linear():
    root = oracles.scan_root(lambda x: x - 1.0, 0.0, 2.0, 1e-3)
    assert root == pytest.approx(1.0, abs=1e-9)


def test_scan_root_picks_leftmost_change():
    h = lambda x: (x - 0.5) * (x - 1.0) * (x - 1.5)
    assert oracles.scan_root(h, 0.0, 2.0, 1e-4) == pytest.approx(0.5, abs=1e-8)


def test_scan_root_no_change():
    with pytest.raises(NoRootError):
        oracles.scan_root(lambda x: x + 1.0, 0.0, 2.0, 1e-3)

