"""The process-wide cache of family builds (``_search_code``, which the
family searches call and ``autocorrelation_code`` calls after its checks)
and the F(0) memo (``_search_f0``)."""

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


def _uncached_f0(key):
    return _kernels._f_real_scalar(tf._build(*tf._KEY.unpack(key))[0], 0.0)


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
    build, asked = tf._search_code, []

    def recorded(*params):
        asked.append(params)
        return build(*params)

    monkeypatch.setattr(tf, "_search_code", recorded)
    found = search()
    monkeypatch.setattr(tf, "_search_code", build)
    info = tf._cached_build.cache_info()
    assert info.hits > 0 and info.currsize == len(set(asked)) < len(asked)
    for params in set(asked):
        assert _bits(build(*params)) == _bits(_uncached(*params)), params
    assert tf._cached_build.cache_info().misses == info.misses

    # and the search finds the same, to the bit, with no cache at all
    monkeypatch.setattr(tf, "_cached_build", lambda key: tf._build(*tf._KEY.unpack(key)))
    monkeypatch.setattr(tf, "_cached_f0", _uncached_f0)
    assert repr(search()) == repr(found)


@pytest.mark.parametrize("search", [_t2_row_search, _t1_cell_search])
def test_search_entry_builds_what_the_public_entry_builds(monkeypatch, search):
    # every weight one search asks for has the same (code, f(0)) through the
    # searches' unchecked entry as through autocorrelation_code, each built
    # from an empty cache, and its F(0) is the kernel's F at 0.0 and -0.0
    build, asked = tf._search_code, set()
    monkeypatch.setattr(tf, "_search_code", lambda *params: asked.add(params) or build(*params))
    search()
    monkeypatch.setattr(tf, "_search_code", build)
    for params in sorted(asked):
        tf._cached_build.cache_clear()
        want = tf.autocorrelation_code(*params)
        tf._cached_build.cache_clear()
        got = tf._search_code(*params)
        assert got is not want and _bits(got) == _bits(want), params
        code = got[0]
        assert (repr(tf._search_f0(*params)) == repr(_kernels._f_real_scalar(code, 0.0))
                == repr(_kernels._f_real_scalar(code, -0.0))), params
    assert len(asked) > 60


def _count_f_at_zero(monkeypatch):
    """The codes of every scalar F at r = 0.0 or -0.0, through either name
    of the kernel."""
    kernel, codes = _kernels._f_real_scalar, []

    def counted(code, r):
        if r == 0.0:
            codes.append(code)
        return kernel(code, r)

    monkeypatch.setattr(_kernels, "_f_real_scalar", counted)
    monkeypatch.setattr(_kernels, "f_real_scalar", counted)
    return codes


def test_density_search_forms_f0_only_at_b_zero(monkeypatch):
    # machine-independent: at b > 0 neither the scores nor the winner's
    # bound read F(0), and none is formed
    zeros = _count_f_at_zero(monkeypatch)
    optimizer.optimize_zd(0.3, 0.0875, budget=60)
    assert zeros == [] and tf._cached_f0.cache_info().misses == 0
    # at b = 0 each distinct weight scored forms its F(0) once, in the memo,
    # and the winner's bound reads F(-0.0) once more
    build, built = tf._search_code, set()

    def recorded(*params):
        got = build(*params)   # raises where the weight is not built
        built.add(params)
        return got

    monkeypatch.setattr(tf, "_search_code", recorded)
    optimizer.optimize_zd(0.2, 0.0, budget=60)
    info = tf._cached_f0.cache_info()
    assert len(built) > 60 and info.misses == len(built) and info.hits == 0
    assert len(zeros) == len(built) + 1 and len(set(map(id, zeros))) == len(built)


def test_a_weight_forms_no_f0(monkeypatch):
    # autocorrelation and triangle build a weight without F(0)
    zeros = _count_f_at_zero(monkeypatch)
    tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5)
    tf.autocorrelation(*optimizer._generator(0.7, 3.2, 1.0))
    tf.triangle(2.0)
    tf.autocorrelation_code(0.5, 1.0, 0.0, 0.0, 2.0)
    assert zeros == [] and tf._cached_f0.cache_info().currsize == 0


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
    # c0 < |c1| took a grid check of the sign, whose e^{alpha s} overflowed
    # with a RuntimeWarning before the refusal; e^{2 alpha s} overflows now
    (800.0, 0.5, 1.0, 1.0, 1.0),
], ids=["nan", "inf", "s-zero", "s-negative", "list", "ndarray", "0d-ndarray",
        "exp-20", "exp-9", "box-1e200", "series-1e200", "higher-moments", "grid-exp-800"])
def test_bad_inputs_raise_on_every_call(params):
    for _ in range(3):
        with pytest.raises(InvalidParameterError):
            tf.autocorrelation_code(*params)
        with pytest.raises(InvalidParameterError):
            tf.autocorrelation(*params)
    assert tf._cached_build.cache_info().currsize == 0


def test_racing_threads_get_identical_codes():
    # and identical F(0), from the memo that they fill at once too
    params = (-0.8, 1.0, 0.9, 2.0, 2.5)
    barrier = threading.Barrier(8, timeout=30)
    seen = []

    def build():
        barrier.wait()
        seen.append(_bits((tf.autocorrelation_code(*params), tf._search_f0(*params))))

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
    assert seen == [_bits((_uncached(*params), _uncached_f0(tf._KEY.pack(*params))))] * 8
    assert tf._cached_build.cache_info().currsize == tf._cached_f0.cache_info().currsize == 1


def test_t1_regression_builds_few_weights():
    # machine-independent: builds made (misses) against builds asked for,
    # from an empty cache, at budget 60 (12.5% when this test was written).
    # The budget-120 regressions' builds are exact entries of
    # tests/counts.json
    tables.regress_zero_density("T1", budget=60)
    info = tf._cached_build.cache_info()
    assert info.misses <= 0.15 * (info.hits + info.misses)


def test_stored_f0_is_the_kernels_f_at_zero():
    # the memoized F(0) is f_real_scalar(code, 0.0) to the bit, and so is
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
        code, _ = tf.autocorrelation_code(*p)
        F0 = tf._search_f0(*map(float, p))
        assert (repr(F0) == repr(_kernels._f_real_scalar(code, 0.0))
                == repr(_kernels._f_real_scalar(code, -0.0))), p
    assert len(params) >= 150
