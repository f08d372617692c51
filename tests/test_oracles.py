"""The brute-force verification backends themselves."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heckezeros import _kernels, oracles, p4, trial_functions as tf
from heckezeros.errors import (DomainError, HeckeZerosError, InvalidParameterError,
                               NoRootError, OracleFailureError)

#: transform points like those the oracle benchmark checks (|z| x0 <= ~50)
_ZS = [complex(a, b) for a in (-2.0, 0.5, 2.5) for b in (-7.0, 1.0, 9.0)
       if (a, b) != (0.5, 1.0)]


def _cosine_weight():
    return tf.autocorrelation(alpha=0.9, c0=1.0, c1=1.0, beta=1.5 * math.pi / 4.5, s=4.5)


class _CountingWeight:
    """Stand-in weight that records the integrand nodes it is asked for."""

    def __init__(self, f):
        self.f, self.x0, self.nodes, self.seen = f, f.x0, 0, []

    def __call__(self, ts):
        self.nodes += len(ts)
        self.seen.append(np.array(ts))
        return self.f(ts)


_WEIGHTS = [tf.triangle(2.0),
            tf.autocorrelation(alpha=0.5, c0=1.0, c1=0.0, beta=0.0, s=1.0),
            _cosine_weight()]


def _uncached_quadrature(f, z):
    """The quadrature oracle's rule with ``f`` sampled afresh at every level:
    levels 16, 32, ... of ``oracles._rule`` until two agree to 1e-13
    (relative 1e-12) at a level ``n >= |Im z| x0``."""
    prev, n, n_min = None, 16, abs(z.imag) * f.x0
    while n <= 4096:
        ts = f.x0 * oracles._rule(n)[1]
        q = f.x0 * (oracles._rule(n)[2] * (f(ts) * np.exp(-z * ts))).sum()
        if prev is not None and n >= n_min and abs(q - prev) <= 1e-13 + 1e-12 * abs(q):
            return q
        prev, n = q, 2 * n
    return None


def _per_pair_f_array(code, z):
    """F(z) of a family code by the pass over its pairs, each pair's exponent
    terms formed afresh at its own points, and +inf at real points where the
    scalar kernel gives it (past -r x0 = 690, or where a pair term in the
    direct form overflows its exp): ``_kernels.f_array``'s rule restated
    without its per-code bookkeeping or blocks.  At real points each folded
    pair adds c Re T.  Off the real axis the pairs of real exponents add c T
    first, and then each other folded pair adds c/2 (T + T'), T' the term of
    its conjugate pair (conj g_j, conj g_k, conj K), in which a real number
    is its own conjugate."""
    x0, folded = code
    z = np.asarray(z)
    scalar = z.ndim == 0
    real = not np.iscomplexobj(z) or not z.imag.any()
    z = np.atleast_1d(z.astype(complex))
    out = np.zeros(z.shape, dtype=complex)
    over = real & (z.real * x0 < -690.0)

    def term(gj, gk, K):
        b = gj + z
        A = gk - z
        w = A * x0
        ew = np.exp(w)
        phi = (K - (ew - 1.0) / A) / b
        near = (np.abs(b) * x0 < _kernels.SMALL_W) | (np.abs(w) < _kernels.SMALL_W)
        for i in np.flatnonzero(near):
            phi.flat[i] = _kernels.pair_near(K, gj, gk, complex(z.flat[i]), x0)
        return phi, ~np.isfinite(ew) & ~near

    def conj(x):
        return x.conjugate() if x.imag else x

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c, gj, gk, K in sorted(folded, key=lambda p: not real and bool(p[1].imag or p[2].imag)):
            phi, inf = term(gj, gk, K)
            if real:
                over |= inf
                out += c * phi.real
            elif gj.imag or gk.imag:
                out += c / 2 * (phi + term(conj(gj), conj(gk), conj(K))[0])
            else:
                out += c * phi
    out[over] = math.inf
    return complex(out[0]) if scalar else out


def _per_pair_weight(code, t):
    """f(t) of a family code with each pair's exp and E formed afresh:
    ``_kernels.weight``'s rule before it shared them."""
    s, folded = code
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    inside = (t >= 0) & (t < s)
    tc = np.where(inside, t, 0.0)
    acc = np.zeros(t.shape)
    for c, g_k, a in _kernels.t_terms(code):
        if g_k == 0 and a == 0:
            acc += c * (s - tc)
        else:
            acc += (c * np.exp(g_k * tc) * _kernels.E(s - tc, a)).real
    out = np.where(inside, acc, 0.0)
    return float(out[0]) if scalar else out


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


#: the four code layouts: the triangle (a box), a plain weight, a cosine
#: weight and one with c0 = 0, alpha = -0.0 among the draws
_LAYOUT = st.sampled_from(["triangle", "plain", "cosine", "c0 = 0"])
_ALPHA = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1.0, 1.0))


def _drawn_weight(layout, alpha, s, frac):
    if layout == "triangle":
        return tf.triangle(s)
    if layout == "plain":
        return tf.autocorrelation(alpha=alpha, s=s)
    if layout == "cosine":
        return tf.autocorrelation(alpha=alpha, c0=1.0, c1=frac, beta=3.0 * frac + 0.1, s=s)
    # c0 = 0: beta s <= pi/2 keeps the generator's cosine >= 0
    return tf.autocorrelation(alpha=alpha, c0=0.0, c1=1.0, beta=frac * math.pi / (2.0 * s), s=s)


def _series_points(f):
    """Points at and near -g_j and g_k of each folded pair, where the pair
    terms switch to ``pair_near``: on, inside and just past the switch."""
    x0, folded = f.kernel_code()
    edge = _kernels.SMALL_W / x0
    pts = []
    for _, gj, gk, *_ in folded:
        for centre in (-gj, gk):
            for d in (0.0, 1e-9, 0.3 * edge, 0.999 * edge, 1.001 * edge):
                pts += [centre + d, centre - d, centre + 1j * d]
    return np.array(pts)


@given(layout=_LAYOUT, alpha=_ALPHA, s=st.floats(0.5, 4.5), frac=st.floats(0.01, 1.0),
       zr=st.floats(-5.0, 5.0), zi=st.floats(-20.0, 20.0))
# near t = s, E of the float 2 alpha and of the complex 2 alpha + 0j differ
@example(layout="cosine", alpha=1.0, s=1.0, frac=1.0, zr=0.5, zi=2.0)
@example(layout="c0 = 0", alpha=-0.0, s=2.0, frac=0.5, zr=-0.0, zi=0.0)
@settings(max_examples=60, deadline=None)
def test_shared_exponent_terms_keep_the_per_pair_bits(layout, alpha, s, frac, zr, zi):
    """f_array, whose bookkeeping is formed once per code and which takes
    each distinct exponent's terms in one stacked operation, and f(t),
    which shares them among its pairs, equal the pass over the pairs bit
    for bit: at real points (some past the float range), at off-axis
    points, on the half-plane grid, near coincident nodes, and on
    grids of several blocks."""
    f = _drawn_weight(layout, alpha, s, frac)
    code = f.kernel_code()
    near = _series_points(f)
    many = np.linspace(-700.0 / s, 5.0, 2500)
    for z in (np.linspace(-5.0, 5.0, 41), np.array([zr + 1j * zi, zr - 1j * zi, 1j * zi, zr]),
              1j * np.linspace(-100.0, 100.0, 2001), near, near.real.copy(), complex(zr, 0.0),
              complex(zr, zi), many, many + 1j * zi, np.array([-400.0, -700.0 / s, zr, 1.0]),
              np.array([[zr, 0.5], [-1.0, 2.0]]), -690.0 / s):
        assert _same_bits(_kernels.f_array(code, z), _per_pair_f_array(code, z))
    ts = np.concatenate([np.linspace(-0.5, 1.2 * s, 121), [0.0, s, np.nextafter(s, 0.0)]])
    assert _same_bits(f(ts), _per_pair_weight(code, ts))
    assert _same_bits(f(0.37 * s), _per_pair_weight(code, 0.37 * s))


@given(layout=_LAYOUT, alpha=_ALPHA, s=st.floats(0.5, 4.5), frac=st.floats(0.01, 1.0),
       zr=st.floats(-5.0, 5.0), zi=st.floats(-20.0, 20.0).filter(bool))
@example(layout="c0 = 0", alpha=-0.0, s=2.0, frac=0.5, zr=-0.0, zi=5e-324)
@settings(max_examples=60, deadline=None)
def test_array_transform_is_conjugate_symmetric_off_the_axis(layout, alpha, s, frac, zr, zi):
    """F(conj z) equals conj F(z) bit for bit at points off the real axis,
    as the half-plane check's mirroring needs: at a drawn point, on grids
    through it, and at the off-axis points near coincident nodes, where
    pair_near forms the terms.  NumPy's complex exp, subtraction and
    division map conjugates to conjugates, and each conjugate pair's two
    terms are summed before they join the rest, so only their addends swap.
    A zero's sign is not compared (adding 0.0 makes it +0.0): an imaginary
    part that cancels exactly, as at Im z = 5e-324, is x + (-x) = +0.0 at
    both points."""
    f = _drawn_weight(layout, alpha, s, frac)
    code, near = f.kernel_code(), _series_points(f)
    xs = np.linspace(-5.0, 5.0, 41)
    for z in (complex(zr, zi), xs + 1j * zi, zr + 1j * np.linspace(-20.0, 20.0, 40),
              np.add.outer(xs, [-3j, 0.1j, 7j]), near[near.imag != 0.0]):
        mirrored = np.asarray(_kernels.f_array(code, np.conj(z))) + 0.0
        assert _same_bits(mirrored, np.conj(_kernels.f_array(code, z)) + 0.0)


@given(layout=_LAYOUT, alpha=_ALPHA, s=st.floats(0.5, 4.5), frac=st.floats(0.01, 1.0),
       zr=st.floats(-3.0, 3.0), zi=st.floats(-10.0, 10.0))
@settings(max_examples=30, deadline=None)
def test_nested_samples_keep_the_per_level_bits(layout, alpha, s, frac, zr, zi):
    """The quadrature, which samples only the nodes each level adds, keeps
    them for later points and forms each point's integrand level by level,
    equals the rule sampled afresh at every level bit for bit."""
    f = _drawn_weight(layout, alpha, s, frac)
    for z in (complex(zr, zi), complex(zr, 0.0), complex(0.0, zi), 2j * math.pi / s):
        assert _same_bits(oracles.quadrature_laplace(f, z), _uncached_quadrature(f, z))


def _accepted_level(f, z):
    """The level at which ``_uncached_quadrature`` accepts its value."""
    prev, n, n_min = None, 16, abs(z.imag) * f.x0
    while n <= 4096:
        ts = f.x0 * oracles._rule(n)[1]
        q = f.x0 * (oracles._rule(n)[2] * (f(ts) * np.exp(-z * ts))).sum()
        if prev is not None and n >= n_min and abs(q - prev) <= 1e-13 + 1e-12 * abs(q):
            return n
        prev, n = q, 2 * n
    return None


#: points of each weight, as multiples of 1/x0, accepted at levels 32 to 128
#: (the shared block's stacked sums) and at 256 to 1024 (finer levels, each
#: appended to the shared block's integrand)
_LEVEL_POINTS = [0.5, 0.5 + 2j, -2.0 + 9j, 2.5 - 40j, 1.0 + 100j, 3j, -1.0 + 200j, 350j, 700j]


@pytest.mark.parametrize("layout", ["triangle", "plain", "cosine", "c0 = 0"])
def test_stacked_level_sums_keep_the_per_level_bits(layout):
    """The quadrature, which forms the shared block's integrand with one exp
    and sums each of levels 16 to 128 from one stacked product, and forms a
    finer level's added nodes alone, equals the rule sampled afresh at every
    level bit for bit, at points accepted at every level from 32 to 1024."""
    f = _drawn_weight(layout, 0.3, 3.0, 0.7)
    levels = set()
    for k in _LEVEL_POINTS:
        z = complex(k) / f.x0
        levels.add(_accepted_level(f, z))
        assert _same_bits(oracles.quadrature_laplace(f, z), _uncached_quadrature(f, z)), z
    assert {32, 64, 128, 256, 512, 1024} <= levels


@pytest.mark.parametrize("layout", ["triangle", "plain", "cosine", "c0 = 0"])
@pytest.mark.parametrize("alpha", [-0.0, 0.0, 0.45, -0.9])
def test_stacked_weight_rows_keep_the_per_exponent_bits(layout, alpha):
    """f(t), which forms its exps and its E rows once per distinct exponent
    in one stacked call per dtype, equals the pass that forms them afresh
    for each pair bit for bit: at the 129 nodes of the quadrature's shared
    block and at t near s, where E takes its series (|a (s - t)| < 1e-2);
    and on those nodes as a 2-d array and as a column, in their shape."""
    f = _drawn_weight(layout, alpha, 2.7, 0.6)
    s = f.x0
    nodes = s * oracles._rule(128)[1]
    for ts in (nodes, s - np.logspace(-18.0, 0.0, 60), np.array([np.nextafter(s, 0.0)]),
               np.array(0.5 * s), nodes.reshape(3, 43), nodes.reshape(-1, 1)):
        assert _same_bits(f(ts), _per_pair_weight(f.kernel_code(), ts))


def test_quadrature_exact_on_septic():
    assert oracles.quadrature_selftest() <= 1e-15


def test_quadrature_triangle_reference_points():
    f = tf.triangle(2.0)
    assert oracles.quadrature_laplace(f, 0.0).real == pytest.approx(2.0, abs=1e-12)
    assert oracles.quadrature_laplace(f, -1.0).real == pytest.approx(np.e**2 - 3, abs=1e-10)


def test_quadrature_highly_oscillatory():
    # ~300 oscillation periods across the support; the rule doubles its
    # level until it resolves them (n >= |Im z| x0 = 2000), with a looser
    # explicit target
    f = tf.triangle(2.0)
    z = 1j * 1e3
    val = oracles.quadrature_laplace(f, z, abs_tol=1e-9)
    assert abs(val - f.laplace(z)) < 1e-7


@pytest.mark.parametrize("f", [tf.triangle(2.0), _cosine_weight()], ids=repr)
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_quadrature_not_fooled_by_aliased_nodes(f, k):
    # at z = 2 pi i k / x0 every node of the first levels sits at
    # e^{-zt} = 1, where two coarse rules agree on int f instead of F(z)
    z = 2j * math.pi * k / f.x0
    assert abs(oracles.quadrature_laplace(f, z) - f.laplace(z)) < 1e-10


def test_quadrature_triangle_at_aliased_point_matches_closed_form():
    val = oracles.quadrature_laplace(tf.triangle(2.0), 4j * math.pi)
    assert abs(val - (-1j / (2.0 * math.pi))) < 1e-10


@pytest.mark.parametrize("z", _ZS, ids=str)
def test_quadrature_node_count(z):
    # machine-independent cost: nested levels reuse every node, and the
    # rule converges by level 128 at these points
    f = _CountingWeight(_cosine_weight())
    val = oracles.quadrature_laplace(f, z)
    assert f.nodes <= 129
    assert abs(val - f.f.laplace(z)) < 1e-10 * (1.0 + abs(val))


@pytest.mark.parametrize("f", _WEIGHTS, ids=repr)
def test_shared_samples_match_uncached_rule_bitwise(f):
    for z in _ZS + [complex(0.5, 1.0), 4j * math.pi]:
        assert oracles.quadrature_laplace(f, z) == _uncached_quadrature(f, z)


def test_shared_samples_evaluate_each_node_once():
    # the nodes do not depend on z, so the 8 points of one weight read f in
    # one call, at the 129 distinct nodes of levels 16..128, where all
    # of them converge
    f = _CountingWeight(_cosine_weight())
    for z in _ZS:
        oracles.quadrature_laplace(f, z)
    nodes = np.concatenate(f.seen)
    assert len(f.seen) == 1
    assert np.unique(nodes).size == nodes.size == f.nodes <= 129


def test_finer_levels_sample_only_the_nodes_they_add():
    # at z = 80 pi i on [0, 2], |Im z| x0 = 502.7 admits level 512, which
    # agrees with level 1024: after the first call's 129 nodes, levels 256,
    # 512 and 1024 each sample the odd k they add, in one call each
    f = _CountingWeight(tf.triangle(2.0))
    oracles.quadrature_laplace(f, 0.5 + 1.0j)
    oracles.quadrature_laplace(f, 80j * math.pi)
    assert [len(ts) for ts in f.seen] == [129, 128, 256, 512]
    nodes = np.concatenate(f.seen)
    assert np.unique(nodes).size == nodes.size


@pytest.mark.parametrize("f", _WEIGHTS + [_drawn_weight("c0 = 0", -0.0, 2.0, 0.5)], ids=repr)
def test_half_plane_grid_is_mirrored_bitwise(f):
    """The half-plane check's grid is symmetric to the bit, and the values
    it mirrors to y < 0 from y > 0 are those of a direct evaluation at
    -iy."""
    ys, vals = tf.half_plane_values(f)
    assert ys.size == vals.size == 2001
    assert (ys == -ys[::-1]).all()
    assert ys[1000] == 0.0 and ys[-1] == 100.0
    assert _same_bits(vals[:1000], f.laplace(1j * ys[:1000]).real)
    assert tf.condition2_min(f) == vals.min()


def test_failure_at_cap_leaves_later_calls_correct():
    # 1e5j is refused before sampling; at 1e7 the rule samples all 4,097
    # nodes of the top level without converging
    f, g = tf.triangle(2.0), _cosine_weight()
    oracles.quadrature_laplace(g, 0.5 + 2.0j)
    for z in (1e5j, 1e7):
        with pytest.raises(OracleFailureError):
            oracles.quadrature_laplace(f, z)
    assert sum(ts.size for ts, _ in oracles._samples(f).values()) == 4097
    for w in (f, g):
        for z in (0.5 + 2.0j, -2.0 + 9.0j, 4j * math.pi):
            val = oracles.quadrature_laplace(w, z)
            assert val == _uncached_quadrature(w, z)
            assert abs(val - w.laplace(z)) < 1e-10


def test_shared_samples_are_read_only():
    # 0.5 + 9i reads the shared block alone, 80 pi i levels 256 to 1024 too
    f = tf.triangle(2.0)
    oracles.quadrature_laplace(f, 0.5 + 9.0j)
    oracles.quadrature_laplace(f, 80j * math.pi)
    blocks = oracles._samples(f)
    assert set(blocks) == {128, 256, 512, 1024}
    for a in sum(blocks.values(), ()) + oracles._rule(32) + oracles._stacked(128)[1:]:
        assert not a.flags.writeable
    for a in (blocks[128][1], blocks[256][1], oracles._rule(32)[2], oracles._stacked(128)[1]):
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                               complex(1.0, math.nan)], ids=str)
def test_quadrature_rejects_non_finite_z(z):
    f = _CountingWeight(tf.triangle(2.0))
    with pytest.raises(DomainError, match="z="):
        oracles.quadrature_laplace(f, z)
    assert f.nodes == 0


def test_quadrature_cap_raises():
    # n >= |Im z| x0 = 2e5 on [0, 2] here, past the top level 4096
    with pytest.raises(OracleFailureError):
        oracles.quadrature_laplace(tf.triangle(2.0), 1e5j)


@pytest.mark.parametrize("z", [-400.0, -1000.0 + 3.0j], ids=str)
def test_quadrature_refuses_overflowing_exponentials(z):
    # -Re z x0 > 709.78: e^{-zt} leaves the float range on [0, 2], where the
    # closed form gives inf; refused by name before any sampling
    f = _CountingWeight(tf.triangle(2.0))
    with pytest.raises(OracleFailureError, match=re.escape(f"z={complex(z)}")):
        oracles.quadrature_laplace(f, z)
    assert f.nodes == 0


def test_scan_root_linear():
    root = oracles.scan_root(lambda x: x - 1.0, 0.0, 2.0, 1e-3)
    assert root == pytest.approx(1.0, abs=1e-9)


def test_scan_root_picks_leftmost_change():
    h = lambda x: (x - 0.5) * (x - 1.0) * (x - 1.5)
    assert oracles.scan_root(h, 0.0, 2.0, 1e-4) == pytest.approx(0.5, abs=1e-8)


def test_scan_root_no_change():
    with pytest.raises(NoRootError):
        oracles.scan_root(lambda x: x + 1.0, 0.0, 2.0, 1e-3)


@pytest.mark.parametrize("lo, hi", [(2.0, 2.0), (2.0, 1.0)])
def test_scan_root_empty_bracket(lo, hi):
    calls = []
    with pytest.raises(NoRootError, match="empty bracket"):
        oracles.scan_root(lambda x: calls.append(x) or x - 1.0, lo, hi, 1e-3)
    assert not calls



@pytest.mark.parametrize("lo, hi, step", [
    (0.0, math.nan, 1e-3), (math.nan, 2.0, 1e-3), (0.0, math.inf, 1e-3),
    (-math.inf, 2.0, 1e-3), (0.0, 2.0, 0.0), (0.0, 2.0, -1e-3),
    (0.0, 2.0, math.nan), (0.0, 2.0, math.inf)], ids=str)
def test_scan_root_rejects_bad_inputs(lo, hi, step):
    calls = []
    with pytest.raises(InvalidParameterError):
        oracles.scan_root(lambda x: calls.append(x) or x - 1.0, lo, hi, step)
    assert not calls


def test_scan_root_polishes_in_few_calls():
    # a coarse scan at 1e-2 in chunks of 64, 128, ... points up to the one
    # holding the change (grid point 1730 lies in the fifth, points 956 to
    # 1979), then 64-way subdivisions: 1e-2 / 64**6 < 1e-12
    calls = []

    def h(x):
        calls.append(len(x))
        return x - 17.3

    root = oracles.scan_root(h, 0.0, 60.0, 1e-6)
    assert abs(root - 17.3) <= 1e-12
    assert calls[:5] == [64, 128, 256, 512, 1024]
    assert calls[5:] == [65] * len(calls[5:]) and len(calls) <= 5 + 6


def test_scan_root_stops_at_adjacent_floats():
    # float spacing near 1e5 is 1.5e-11, so the cell never gets 1e-12 wide
    # (h gives up after 20 calls, so a scan that keeps subdividing fails
    # here instead of hanging)
    r, calls = 1e5 + 0.3, []

    def h(x):
        calls.append(len(x))
        if len(calls) > 20:
            raise RuntimeError("scan did not stop")
        return x - r

    root = oracles.scan_root(h, 1e5 - 1.0, 1e5 + 1.0, 1e-6)
    assert abs(root - r) <= 2.0 * math.ulp(r)


@pytest.mark.parametrize("lo, hi", [(0.0, 1e12), (-1e300, 1e300)], ids=str)
def test_scan_root_refuses_brackets_past_its_cell_cap(lo, hi):
    # 1e14 and 2e302 coarse cells, more than 2**24: refused before any h
    # call, where the whole grid was asked for up front (728 TiB on
    # [0, 1e12]; a bare ValueError on [-1e300, 1e300])
    calls = []
    with pytest.raises(InvalidParameterError, match=re.escape("2**24 cells")):
        oracles.scan_root(lambda x: calls.append(x) or x - 1.0, lo, hi, 1e-6)
    assert not calls


def test_scan_root_forms_only_the_chunks_it_scans():
    # 1.6e7 cells of 1e-2, under the cap: a root at 0.5 reads the first 64
    # grid points, not the 128 MB of the whole grid
    calls = []
    root = oracles.scan_root(lambda x: calls.append(len(x)) or x - 0.5, 0.0, 1.6e5, 1e-6)
    assert abs(root - 0.5) <= 1e-12
    assert calls[0] == 64 and set(calls[1:]) == {65}


@given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-9, 1e3), step=st.floats(1e-8, 1.0))
@example(lo=-0.005, width=0.02, step=1e-3)
@example(lo=1e3, width=1e-9, step=1e-8)
@example(lo=-0.0, width=1.0, step=1.0)
@settings(max_examples=100, deadline=None)
def test_scan_root_grid_has_the_bits_of_arange(lo, width, step):
    # with no sign change the scan reads every point of its coarse grid, in
    # chunks that share their end points: the points of np.arange, the last
    # clamped to hi
    hi = lo + width
    if hi <= lo:
        return
    chunks = []
    with pytest.raises(NoRootError):
        oracles.scan_root(lambda x: chunks.append(x.copy()) or x + np.inf, lo, hi, step)
    coarse = max(step, min(1e-2, (hi - lo) / 100.0))
    xs = np.arange(lo, hi + coarse, coarse)
    xs[-1] = min(xs[-1], hi)
    scanned = np.concatenate([chunks[0]] + [c[1:] for c in chunks[1:]])
    assert _same_bits(scanned, xs)


@given(a=st.floats(-1e3, 1e3), width=st.floats(1e-12, 1e-2),
       ulps=st.integers(1, 200), few=st.booleans())
@example(a=-0.0, width=1e-2, ulps=1, few=False)
@example(a=0.0, width=1e-2, ulps=1, few=False)
@settings(max_examples=200, deadline=None)
def test_subdivision_grid_has_the_bits_of_linspace(a, width, ulps, few):
    """A scan's 65-point subdivision of [a, b], k ((b - a)/64) + a with b at
    the end, equals np.linspace(a, b, 65) bit for bit: on cells a few ulps
    wide (of a float past 1e4, where the scan subdivides cells that narrow),
    and on cells with a -0.0 end."""
    if few:
        a = a + 2.0e4
        b = a
        for _ in range(ulps):
            b = np.nextafter(b, math.inf)
        b = float(b)
    else:
        b = a + width
    for lo, hi in ((a, b), (-b, -a)):
        assert _same_bits(oracles._subdivision(lo, hi), np.linspace(lo, hi, 65))
    for lo, hi in ((-0.0, width), (-width, -0.0)):
        assert _same_bits(oracles._subdivision(lo, hi), np.linspace(lo, hi, 65))


def _flat_scan_root(h, lo, hi, step):
    """Reference: ``oracles.scan_root`` with its coarse grid evaluated in one
    flat pass, as it was before the chunked scan."""
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
    cell = first_change(xs)
    if cell is None:
        raise NoRootError("no sign change")
    while cell[1] - cell[0] > 1e-12:
        sub = first_change(np.linspace(cell[0], cell[1], 65))
        if sub is None or sub == cell:
            break
        cell = sub
    return 0.5 * (cell[0] + cell[1])


#: the coarse grid of a scan on [0, 60] at step 1e-6: 6,001 points 1e-2
#: apart, scanned in chunks of points 0-63, 63-190, 190-445, 445-956,
#: 956-1979, 1979-4026 and the short last one, 4026-6000
_GRID = np.arange(0.0, 60.0 + 1e-2, 1e-2)


@pytest.mark.parametrize("h, lo, hi, step, grid_points", [
    (lambda x: x - 0.5, 0.0, 60.0, 1e-6, 64),                          # first chunk
    (lambda x: x - 0.5 * (_GRID[62] + _GRID[63]), 0.0, 60.0, 1e-6, 64),  # its last cell
    (lambda x: x - _GRID[63], 0.0, 60.0, 1e-6, 64),      # exact zero on the shared point
    (lambda x: x - 0.5 * (_GRID[63] + _GRID[64]), 0.0, 60.0, 1e-6, 191),  # next one's first
    (lambda x: _GRID[190] - x, 0.0, 60.0, 1e-6, 191),            # a zero at its end, falling
    (lambda x: x - 55.0, 0.0, 60.0, 1e-6, 6001),                 # the short last chunk
    (lambda x: x - 59.995, 0.0, 60.0, 1e-6, 6001),               # its last cell
    (lambda x: x - 1.23, 0.0, 2.0, 0.1, 21),                     # a grid of 21 points
    (lambda x: np.tanh(40.0 * (x - 3.3)), 1.0, 4.0, 1e-6, 301),  # 301, the third chunk short
], ids=["first", "first-last-cell", "zero-shared", "second-first-cell", "zero-second-end",
        "last", "last-cell", "short-bracket", "tanh"])
def test_scan_root_chunks_keep_the_flat_scans_cell(h, lo, hi, step, grid_points):
    # the chunked coarse scan stops at the chunk with the first change and
    # gives the flat scan's root to the bit, after grid_points points of the
    # coarse grid, each chunk after the first repeating the end point of the
    # one before; the subdivision passes after it take 65 points each
    chunks = []

    def counted(x):
        if len(x) > 1 and x[1] - x[0] > 5e-3:   # grid steps 1e-2, 0.1; subdivisions 64 times finer
            chunks.append(len(x))
        return h(x)

    root = oracles.scan_root(counted, lo, hi, step)
    assert root == _flat_scan_root(h, lo, hi, step)
    assert chunks[:-1] == [64 * 2 ** k for k in range(len(chunks) - 1)]
    assert sum(chunks) - (len(chunks) - 1) == grid_points


def test_scan_root_chunks_find_no_change_where_the_flat_scan_finds_none():
    for lo, hi, step in ((0.0, 60.0, 1e-6), (0.0, 2.0, 0.1)):
        points = []
        with pytest.raises(NoRootError):
            _flat_scan_root(lambda x: x + 1.0, lo, hi, step)
        with pytest.raises(NoRootError):
            oracles.scan_root(lambda x: points.append(len(x)) or x + 1.0, lo, hi, step)
        # every grid point, the shared ends twice
        assert sum(points) - (len(points) - 1) == (6001 if hi == 60.0 else 21)


def _flat_scan_then_bisect(h, lo, hi, step):
    """Reference: leftmost sign change of a flat scan at ``step``, then
    bisection of that cell to 1e-12."""
    xs = np.arange(lo, hi + step, step)
    xs[-1] = min(xs[-1], hi)
    sign = np.sign(h(xs))
    i = int(np.nonzero(sign[:-1] * sign[1:] <= 0)[0][0])
    a, b = float(xs[i]), float(xs[i + 1])
    fa = float(h(np.array([a]))[0])
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        fm = float(h(np.array([mid]))[0])
        if fa * fm <= 0 and fm != 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


#: parts of z, and scan bounds and steps: ordinary values, the signed
#: zeros, subnormals, values near the float range's end and non-finite ones
_EDGY = st.one_of(st.floats(-60.0, 60.0),
                  st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300,
                                   math.inf, -math.inf, math.nan]))


def _finite_or_refused(call):
    """The value of ``call()``, asserted finite, or None where it raised a
    HeckeZerosError; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            val = call()
        except HeckeZerosError:
            return None
    assert np.all(np.isfinite(val))
    return val


#: arguments that are not numbers at all
_NOT_NUMBERS = st.sampled_from(["1e-9", None, 1j])


@given(layout=st.sampled_from(["triangle", "plain", "cosine"]), alpha=_ALPHA,
       s=st.floats(0.5, 4.5), zr=_EDGY, zi=_EDGY, tol=st.one_of(_EDGY, _NOT_NUMBERS),
       lo=st.one_of(_EDGY, _NOT_NUMBERS), hi=st.one_of(_EDGY, _NOT_NUMBERS), step=_EDGY,
       r=st.floats(-60.0, 60.0))
# e^{-zt} past the float range on [0, 2]; brackets of 1e14 and 2e302 cells
@example(layout="triangle", alpha=0.0, s=2.0, zr=-400.0, zi=0.0, tol=1e-13,
         lo=0.0, hi=1e12, step=1e-6, r=0.5)
@example(layout="triangle", alpha=0.0, s=2.0, zr=-1000.0, zi=3.0, tol=1e-13,
         lo=-1e300, hi=1e300, step=1e-6, r=0.5)
# a tolerance and bounds that are not finite reals, once a report of no
# convergence after 4,097 nodes, or a TypeError
@example(layout="cosine", alpha=0.0, s=2.0, zr=0.5, zi=0.0, tol=math.nan,
         lo="0", hi=None, step=1e-3, r=0.5)
@example(layout="cosine", alpha=0.0, s=2.0, zr=0.5, zi=0.0, tol="1e-9",
         lo=0.0, hi=1j, step=1e-3, r=0.5)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_oracle_entry_points_return_finite_values_or_refuse(layout, alpha, s, zr, zi, tol,
                                                            lo, hi, step, r):
    """The quadrature and the scan give a finite value or raise a
    HeckeZerosError, and warn of nothing, at any z, tolerance, bracket and
    step, numbers or not."""
    f = _drawn_weight(layout, alpha, s, 1.0)
    _finite_or_refused(lambda: oracles.quadrature_laplace(f, complex(zr, zi), tol))
    _finite_or_refused(lambda: oracles.scan_root(lambda x: x - r, lo, hi, step))


@given(entry=st.sampled_from(["triangle laplace", "laplace", "autocorrelation", "gm_check"]),
       p=st.tuples(*[_EDGY] * 5), zr=_EDGY, zi=_EDGY.filter(bool),
       v=st.tuples(*[_EDGY] * 3))
# e^{-zt} past the float range off the real axis, once nan+nanj
@example(entry="triangle laplace", p=(0.0, 0.0, 0.0, 0.0, 2.0), zr=-400.0, zi=1.0,
         v=(0.0, 0.0, 0.0))
@example(entry="laplace", p=(-0.8, 1.0, 0.9, 2.0, 2.5), zr=-354.0, zi=0.78, v=(0.0, 0.0, 0.0))
# x^2 and V x^m past the float range, once inf / inf and a warning
@example(entry="gm_check", p=(0.7677, 1e300, 4.82, 0.0, 0.0), zr=0.0, zi=1.0,
         v=(1e300, 1e-300, -400.0))
# alpha u past the float range in the grid that checked the generator's
# sign, once a NumPy overflow warning
@example(entry="autocorrelation", p=(-1e300, 0.0, -400.0, 710.0, 1e300), zr=0.0, zi=1.0,
         v=(0.0, 0.0, 0.0))
# a x past the float range in the E of f(t) at t = 0, where f(0) = 5e-301,
# once a NumPy overflow warning
@example(entry="autocorrelation", p=(-1e300, 1.0, 0.0, 0.0, 1e10), zr=0.0, zi=1.0,
         v=(0.0, 0.0, 0.0))
# a NaN V or z, once NaN with no error; an infinite z is the limit 0
@example(entry="gm_check", p=(1.0, 1.5, 1.5, 0.0, 0.0), zr=0.0, zi=1.0,
         v=(math.nan, 1.0, 0.0))
@example(entry="gm_check", p=(1.0, 1.5, 1.5, 0.0, 0.0), zr=0.0, zi=1.0,
         v=(1.0, 1.0, math.nan))
@example(entry="gm_check", p=(1.0, 1.5, 1.5, 0.0, 0.0), zr=0.0, zi=1.0,
         v=(1.0, 1.0, -math.inf))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_transform_and_lemma_entry_points_return_finite_values_or_refuse(entry, p, zr, zi, v):
    """A weight's build (``p`` its alpha, c0, c1, beta and s) with its f(0)
    and its f(t) at t = 0, its transform off the real axis, where a value
    past the float range is refused (on the axis it is inf by contract), and
    the three-term lemma (``v`` its V, W and z, ``p`` its m, x and y) give
    finite values or raise a HeckeZerosError, and warn of nothing."""
    z = complex(zr, zi)

    def built():
        f = tf.autocorrelation(*p)
        return f.f0, f(0.0)

    call = {"triangle laplace": lambda: tf.triangle(p[4]).laplace(z),
            "laplace": lambda: tf.autocorrelation(*p).laplace(z),
            "autocorrelation": built,
            "gm_check": lambda: p4.gm_check(v[0], v[1], *p[:3], v[2])}[entry]
    _finite_or_refused(call)


@given(r=st.floats(0.01, 1.99), k=st.floats(1e-3, 1e3),
       sense=st.sampled_from([1.0, -1.0]), shape=st.sampled_from(["linear", "cubic", "tanh"]),
       step=st.sampled_from([1e-3, 1e-4]))
@settings(max_examples=60, deadline=None)
def test_scan_root_matches_flat_scan_on_monotone_functions(r, k, sense, shape, step):
    outer = {"linear": lambda u: u, "cubic": lambda u: u ** 3, "tanh": np.tanh}[shape]
    h = lambda x: sense * outer(k * (x - r))
    ref = _flat_scan_then_bisect(h, 0.0, 2.0, step)
    assert abs(oracles.scan_root(h, 0.0, 2.0, step) - ref) <= 1e-12 + 2.0 * math.ulp(ref)
