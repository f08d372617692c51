"""The brute-force verification backends themselves."""

import numpy as np
import pytest

from heckezeros import oracles, trial_functions as tf
from heckezeros.errors import NoRootError


def test_simpson_exact_on_cubic():
    assert oracles.simpson_selftest() <= 1e-15


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


def test_scan_root_linear():
    root = oracles.scan_root(lambda x: x - 1.0, 0.0, 2.0, 1e-3)
    assert root == pytest.approx(1.0, abs=1e-9)


def test_scan_root_picks_leftmost_change():
    h = lambda x: (x - 0.5) * (x - 1.0) * (x - 1.5)
    assert oracles.scan_root(h, 0.0, 2.0, 1e-4) == pytest.approx(0.5, abs=1e-8)


def test_scan_root_no_change():
    with pytest.raises(NoRootError):
        oracles.scan_root(lambda x: x + 1.0, 0.0, 2.0, 1e-3)

