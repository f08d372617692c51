"""The process-wide cache of family builds (``autocorrelation_code``)."""

import sys
import threading

import numpy as np
import pytest

from heckezeros import _kernels, optimizer, tables, trial_functions as tf
from heckezeros.errors import InvalidParameterError


def _bits(built):
    """repr of (code, f0), so two builds compare bit for bit (the sign of a
    zero included)."""
    return repr(built)


def _uncached(*params):
    return tf._build(*map(float, params))


def _t2_row_search():
    t = tables.load_table("T2:principal")
    return optimizer.optimize_family_smoothed(t.case_name, t.rows[len(t.rows) // 2].b,
                                              budget=120)


def _t1_cell_search():
    return optimizer.optimize_zd(0.3, 0.0875, budget=60)


@pytest.mark.parametrize("search", [_t2_row_search, _t1_cell_search])
def test_cached_builds_equal_uncached_ones(monkeypatch, search):
    # every weight one search asks for, as the cache holds it after the
    # search, against an uncached build
    build, asked = tf.autocorrelation_code, []

    def recorded(*params):
        asked.append(params)
        return build(*params)

    monkeypatch.setattr(tf, "autocorrelation_code", recorded)
    found = search()
    monkeypatch.setattr(tf, "autocorrelation_code", build)
    info = tf._cached_build.cache_info()
    assert info.hits > 0 and info.currsize == len(set(asked)) < len(asked)
    for params in set(asked):
        assert _bits(build(*params)) == _bits(_uncached(*params)), params
    assert tf._cached_build.cache_info().misses == info.misses

    # and the search finds the same, to the bit, with no cache at all
    monkeypatch.setattr(tf, "_cached_build", lambda key: tf._build(*tf._KEY.unpack(key)))
    assert repr(search()) == repr(found)


def test_minus_zero_alpha_gets_its_own_code():
    params = optimizer._generator(0.0, 3.2, 1.0)[1:]
    plus, minus = tf.autocorrelation_code(0.0, *params), tf.autocorrelation_code(-0.0, *params)
    assert _bits(plus) == _bits(_uncached(0.0, *params))
    assert _bits(minus) == _bits(_uncached(-0.0, *params))
    assert _bits(plus) != _bits(minus)
    assert tf._cached_build.cache_info().currsize == 2
    assert tf.autocorrelation_code(-0.0, *params) is minus


@pytest.mark.parametrize("params", [
    (float("nan"), 1.0, 1.0, 1.0, 2.0),
    (0.0, float("inf"), 1.0, 1.0, 2.0),
    (0.0, 1.0, 1.0, 1.0, 0.0),
    (0.0, 1.0, 1.0, 1.0, -2.0),
    ([0.5], 1.0, 1.0, 1.0, 2.0),
    (0.0, 1.0, 1.0, np.array([1.0, 2.0]), 2.0),
    (0.0, 1.0, 1.0, 1.0, np.array(2.0)),
    # the pinned overflows: e^{2 alpha s}, the pair term at coincidence of the
    # box and of the three-node series (about s^2/2), and M_1 where f(0) is finite
    (20.0, 1.0, 0.0, 0.0, 40.0),
    (9.0, 1.0, 0.0, 0.0, 40.0),
    (0.0, 1.0, 0.0, 0.0, 1e200),
    (1e-203, 1.0, 0.0, 0.0, 1e200),
    (3.545, 1.0, 0.0, 0.0, 100.0),
], ids=["nan", "inf", "s-zero", "s-negative", "list", "ndarray", "0d-ndarray",
        "exp-20", "exp-9", "box-1e200", "series-1e200", "higher-moments"])
def test_bad_inputs_raise_on_every_call(params):
    for _ in range(3):
        with pytest.raises(InvalidParameterError):
            tf.autocorrelation_code(*params)
        with pytest.raises(InvalidParameterError):
            tf.autocorrelation(*params)
    assert tf._cached_build.cache_info().currsize == 0


def test_racing_threads_get_identical_codes():
    params = (-0.8, 1.0, 0.9, 2.0, 2.5)
    barrier = threading.Barrier(8, timeout=30)
    seen = []

    def build():
        barrier.wait()
        seen.append(_bits(tf.autocorrelation_code(*params)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [_bits(_uncached(*params))] * 8
    assert tf._cached_build.cache_info().currsize == 1


@pytest.mark.parametrize("run,most", [
    (lambda: tables.regress_zero_density("T1", budget=60), 0.15),
    (lambda: tables.regress("T2:principal", budget=120), 0.25),
], ids=["T1", "T2:principal"])
def test_table_regressions_build_few_weights(run, most):
    # machine-independent: builds made (misses) against builds asked for,
    # from an empty cache; 12.5% and 20.2% when this test was written
    run()
    info = tf._cached_build.cache_info()
    assert info.misses <= most * (info.hits + info.misses)


def test_stored_f0_is_the_kernels_f_at_zero():
    # the build's F(0) is f_real_scalar(code, 0.0) to the bit, and so is
    # F(-0.0), which the snapped 'sz' h reads from it: the search's seed grid
    # and coarse-scan alphas over both profiles and the density box's s = 40,
    # plain weights (alpha = -0.0 too) and one with c0 = 0
    alphas = set(optimizer.FAMILY_GRID["alpha"]) | {-4.0 + 8.0 * i / 12 for i in range(13)}
    params = [optimizer._generator(alpha, s, mult) for alpha in sorted(alphas)
              for s in optimizer.FAMILY_GRID["s"] + (0.2, 10.0, 40.0)
              for mult in optimizer.PROFILES if abs(alpha) * s < 8.0]
    params += [(alpha, 1.0, 0.0, 0.0, 2.0) for alpha in (0.5, -1.3, 0.0, -0.0)]
    params += [(-0.3, 0.0, 1.0, 0.5, 3.0)]
    for p in params:
        code, _, F0 = tf.autocorrelation_code(*p)
        assert (repr(F0) == repr(_kernels._f_real_scalar(code, 0.0))
                == repr(_kernels._f_real_scalar(code, -0.0))), p
    assert len(params) >= 150
