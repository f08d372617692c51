"""The fixed quartic: evaluation, real-part identity, positivity lemmas."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckezeros import _kernels, p4
from heckezeros.errors import DomainError, InvalidParameterError


def test_coefficients():
    # P(X) = X + X^2 + (4/5) X^3 + (2/5) X^4: P(0) = 0, and the values at 1,
    # 2, 3 and 4 fix the four coefficients of degrees 1..4
    coeffs = (1.0, 1.0, 0.8, 0.4)
    for x in (0.0, 1.0, 2.0, 3.0, 4.0):
        want = sum(c * x ** k for k, c in enumerate(coeffs, 1))
        assert p4.p4_eval(x) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x,expected", [(0.0, 0.0), (1.0, 3.2), (0.5, 0.875)])
def test_point_values(x, expected):
    assert p4.p4_eval(x) == pytest.approx(expected, abs=1e-15)


class TestRealPartIdentity:
    def test_equal_abscissae(self):
        # the remainder term vanishes when a = b
        assert p4.re_p4_identity(1.0, 1.0, 0.0) == pytest.approx(3.2, abs=1e-14)

    def test_cross_check_half(self):
        assert p4.re_p4_identity(1.0, 2.0, 0.0) == pytest.approx(0.875, abs=1e-14)

    def test_against_direct_complex_evaluation(self):
        v = p4.re_p4_identity(0.7, 1.3, 2.1)
        w = p4.p4_eval(0.7 / (1.3 + 2.1j)).real
        assert v == pytest.approx(w, abs=1e-13)

    @given(a=st.floats(0.05, 3.0), gap=st.floats(0.0, 3.0), t=st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_identity_property(self, a, gap, t):
        b = a + gap
        v = p4.re_p4_identity(a, b, t)
        w = p4.p4_eval(a / (b + 1j * t)).real
        assert abs(v - w) <= 1e-12 * (1.0 + abs(w))

    def test_random_batch_residual(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.05, 3.0, 10_000)
        b = a + rng.uniform(0.0, 3.0, 10_000)
        t = rng.uniform(-30.0, 30.0, 10_000)
        ident = np.array([p4.re_p4_identity(x, y, z) for x, y, z in zip(a, b, t)])
        direct = p4.p4_eval(a / (b + 1j * t)).real
        assert np.max(np.abs(ident - direct) / (1 + np.abs(direct))) <= 1e-12

    def test_lower_bound_by_leading_term(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a = rng.uniform(0.05, 2.0)
            b = a + rng.uniform(0.0, 2.0)
            t = rng.uniform(-20.0, 20.0)
            lead = (16.0 / 5.0) * (a * b) ** 4 / (b * b + t * t) ** 4
            assert p4.re_p4_identity(a, b, t) >= lead - 1e-14

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            p4.re_p4_identity(2.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            p4.re_p4_identity(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0),
                                      (1.0, math.nan)])
    def test_non_finite_rejected(self, a, b):
        # b = inf returned nan with a RuntimeWarning (inf / inf)
        with pytest.raises(DomainError, match="require finite"):
            p4.re_p4_identity(a, b, 0.0)

    @pytest.mark.parametrize("t", [math.nan, [0.0, math.nan]], ids=["scalar", "array"])
    def test_nan_t_rejected(self, t):
        # t = nan returned nan; an infinite t is the limit 0
        with pytest.raises(DomainError, match="require t that is not NaN"):
            p4.re_p4_identity(1.0, 2.0, t)
        assert p4.re_p4_identity(1.0, 2.0, [math.inf, -math.inf]).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("z, rule", [
    (math.nan, "a finite z"), (complex(math.nan, 1.0), "a finite z"), (math.inf, "a finite z"),
    ([0.5, math.nan], "a finite z"),
    (1e78 + 1e78j, "z whose P"), (1e100, "z whose P"), ([0.5, -1e100], "z whose P")])
def test_p4_eval_refuses_what_is_not_finite(z, rule):
    # p4_eval(1e78+1e78j) returned (-inf+nanj) and p4_eval(nan) nan; the
    # kernels' own _p4 stays unchecked
    z = np.asarray(z) if isinstance(z, list) else z
    with pytest.raises(DomainError, match=f"require {rule}"):
        p4.p4_eval(z)
    with np.errstate(all="ignore"):
        assert not np.isfinite(_kernels._p4(z)).all()


def test_p4_eval_is_the_kernels_quartic():
    for z in (0.0, 0.3, -2.5, 0.7 - 0.2j, 1e77):
        got = p4.p4_eval(z)
        assert type(got) is type(_kernels._p4(z)) and got == _kernels._p4(z)
    zs = np.array([0.1, 0.2 + 1j, -3.0])
    assert np.array_equal(p4.p4_eval(zs), _kernels._p4(zs))


class TestGm:
    def test_equality_case(self):
        assert p4.gm_check(1.0, 0.0, 4, 1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_guaranteed_instance_positive_on_grid(self):
        # 2/1.1^4 = 1.366 >= 1
        assert p4.gm_guaranteed(2.0, 0.0, 4, 1.1, 1.0)
        z = np.linspace(-30, 30, 3001)
        assert p4.gm_check(2.0, 0.0, 4, 1.1, 1.0, z).min() >= -1e-12
        assert p4.gm_check(2.0, 0.0, 4, 1.1, 1.0, 0.5) > 0

    def test_unguaranteed_instance_reports_value(self):
        # 0.5/1.2^4 + 0.6/1.1^4 = 0.651 < 1: no guarantee, value still computed
        assert not p4.gm_guaranteed(0.5, 0.6, 4, 1.2, 1.1)
        v = p4.gm_check(0.5, 0.6, 4, 1.2, 1.1, 1.0)
        assert np.isfinite(v)

    def test_domain(self):
        with pytest.raises(DomainError):
            p4.gm_check(1.0, 1.0, 4, 0.9, 1.0, 0.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 1.2), (1.2, math.nan), (math.inf, 1.2),
                                      (1.2, math.inf)])
    def test_non_finite_rejected(self, x, y):
        # x = nan returned [nan]
        with pytest.raises(DomainError, match="require finite"):
            p4.gm_check(1, 1, 1, x, y, [0.0])

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_non_finite_m_rejected(self, m):
        # m = inf gave NaN with a RuntimeWarning (inf / inf), m = NaN gave NaN
        with pytest.raises(DomainError, match="require finite m"):
            p4.gm_check(1, 1, m, 1.5, 1.5, np.linspace(-2.0, 2.0, 5))

    @pytest.mark.parametrize("call", [
        # was -32.83, below 0 where the lemma's condition held: at m = -1 it
        # no longer implies G_m >= 0
        lambda: p4.gm_check(1, 0, -1, 1.5, 1.5, 10.0),
        # returned True
        lambda: p4.gm_guaranteed(1, 0, -1, 1.5, 1.5),
        # (x^2 + z^2)^m = 2.25^-1000 underflowed to 0: a divide-by-zero
        # RuntimeWarning and inf, where the value is about 2.4e176
        lambda: p4.gm_check(1, 1, -1000, 1.5, 1.5, 0.0),
        lambda: p4.gm_check(1, 1, 0, 1.5, 1.5, 0.0),
        lambda: p4.gm_guaranteed(1, 1, 0.0, 1.5, 1.5),
    ], ids=["check", "guaranteed", "underflow", "check-zero", "guaranteed-zero"])
    def test_non_positive_m_rejected(self, call):
        with pytest.raises(DomainError, match=r"require finite m > 0, got m="):
            call()

    @pytest.mark.parametrize("V, W", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                      (1.0, -math.inf)])
    def test_non_finite_coefficients_rejected(self, V, W):
        # V = nan and W = nan returned nan; V = inf returned inf
        with pytest.raises(DomainError, match=r"^require finite V, W, got V="):
            p4.gm_check(V, W, 1, 1.5, 1.5, 0.0)
        with pytest.raises(DomainError, match=r"^require finite V, W, got V="):
            p4.gm_guaranteed(V, W, 1, 1.5, 1.5)

    @pytest.mark.parametrize("z", [math.nan, [0.0, math.nan]], ids=["scalar", "array"])
    def test_nan_z_rejected(self, z):
        # returned nan, and [-0.11, nan]
        with pytest.raises(DomainError, match=r"^require z that is not NaN, got z="):
            p4.gm_check(1, 1, 1, 1.5, 1.5, z)

    def test_infinite_z_is_the_limit(self):
        assert p4.gm_check(1, 1, 1, 1.5, 1.5, math.inf) == 0.0
        assert p4.gm_check(1, 1, 1, 1.5, 1.5, [-math.inf, 0.0]).tolist() == [
            0.0, p4.gm_check(1, 1, 1, 1.5, 1.5, 0.0)]

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_guaranteed_rejects_non_finite_m(self, m):
        with pytest.raises(DomainError, match="require finite m"):
            p4.gm_guaranteed(1, 1, m, 1.5, 1.5)

    @pytest.mark.parametrize("m, z, want", [
        (1000, 0.0, -1.0),   # (x^2 + z^2)^m overflowed with a RuntimeWarning: 2.25^1000
        (4, 1e200, 0.0),     # z * z overflowed with a RuntimeWarning; the value is 9e-1600
    ], ids=["power", "square"])
    @pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
    def test_limits_past_the_float_range(self, m, z, want, array):
        # tier-1 raises every RuntimeWarning as an error
        if array:
            assert p4.gm_check(1, 1, m, 1.5, 1.5, [z, z]).tolist() == [want, want]
        else:
            got = p4.gm_check(1, 1, m, 1.5, 1.5, z)
            assert type(got) is float and got == want

    @pytest.mark.parametrize("x, y", [(0.5, 1.5), (1.5, 0.999), (math.nan, 1.2),
                                      (1.2, math.nan), (math.inf, 1.2)])
    def test_guaranteed_has_the_lemmas_domain(self, x, y):
        # x = 0.5 returned True, outside the lemma's x, y >= 1, and x = nan
        # returned False
        with pytest.raises(DomainError, match="require finite x, y >= 1"):
            p4.gm_guaranteed(1, 1, 4, x, y)


@pytest.mark.parametrize("call, named", [
    (lambda: p4.gm_check(1, 1, 4, 1e100, 1.5, [0.0]), "x"),
    (lambda: p4.gm_guaranteed(1, 1, 4, 1e100, 1.5), "x"),
    (lambda: p4.pm_positivity(p4.PositivityQuery(1, 1, 1, 1, 1, 1e100)), "c"),
], ids=["gm_check", "gm_guaranteed", "pm_positivity"])
def test_power_past_the_float_range_is_a_domain_error(call, named):
    # each raised a bare OverflowError from Python's float **
    with pytest.raises(DomainError, match=f"^{named} = .* is too large: its power 4 overflows"):
        call()


@pytest.mark.parametrize("call, named", [
    (lambda: p4.pm_positivity(p4.PositivityQuery(1, 1, 1, 1e-100, 1, 1)), "a"),
], ids=["pm_positivity"])
def test_divisor_underflowing_to_zero_is_a_domain_error(call, named):
    # pm_positivity raised a bare ZeroDivisionError (a^4 == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError,
                           match=f"^{named} = .* is too small: its power 4 underflows to 0$"):
            call()


def test_numerator_underflowing_to_zero_still_evaluates():
    # (ab)^4 = 0 in floats where b^2 + t^2 is 1: the leading term is below
    # the float range, and the remainder a (b - a) (5 + 10 a + 14 a^2)/5 is
    # the value
    assert p4.re_p4_identity(1e-100, 1.0, 0.0) == pytest.approx(1e-100, rel=1e-12)


def _mp_re_p4(a, b, t, mpmath):
    """Re P(a/(b+it)) by mpmath to 50 digits: at a = b the terms, of size
    s = 1/(1 + (t/b)^2), cancel down to the value's s^4, so the working
    precision grows by 4 log10 |t/b| digits."""
    extra = 4 * max(0, int(mpmath.log10(abs(mpmath.mpf(t) / b)) + 1)) if t else 0
    with mpmath.workdps(50 + extra):
        X = mpmath.mpf(a) / (mpmath.mpf(b) + 1j * mpmath.mpf(t))
        return float((X + X ** 2 + mpmath.mpf(4) / 5 * X ** 3 + mpmath.mpf(2) / 5 * X ** 4).real)


@pytest.mark.parametrize("a, b, t", [
    (1e100, 1e100, 0.0),      # (ab)^4 overflowed: a DomainError
    (1e-100, 1e-100, 0.0),    # (b^2 + t^2)^4 underflowed to 0: a DomainError
    (1e-60, 1e-60, 1.0),      # the same at one point of an array
    (1e-60, 1e-60, 0.0),
    (1e-40, 1e-40, 0.0),      # 3.2000988: (ab)^4 and (b^2 + t^2)^4 subnormal
    (0.5, 1.0, 1e70),         # 0.0 with an overflow RuntimeWarning
    (1e-100, 1.0, 0.0),       # (ab)^4 underflows to 0 in floats
    (1e-200, 1e200, 1e250),
    (0.7, 1.3, 2.1),
])
def test_identity_keeps_the_float_range(a, b, t):
    # the identity is evaluated in a/b and 1/(1 + (t/b)^2), so no power of
    # a, b or t leaves the float range: no error and no warning anywhere
    mpmath = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = p4.re_p4_identity(a, b, t)
        arr = p4.re_p4_identity(a, b, [t, -t])
    want = _mp_re_p4(a, b, t, mpmath)
    assert got == pytest.approx(want, rel=4e-16, abs=0.0)
    assert list(arr) == [got, got]


class TestPmPositivity:
    def test_trivial_query(self):
        res = p4.pm_positivity(p4.PositivityQuery(1, 1, 1, 1, 1, 1))
        assert res.guaranteed
        assert res.min_over_t >= -1e-12
        # at t = 0 the combination is 3.2 + 3.2 - 3.2
        mn, at = _kernels.p4_combo_min(1, 1, 1, 1, 1, 1, np.array([0.0]))
        assert mn == pytest.approx(3.2) and at == 0.0

    def test_unguaranteed_query_still_reports_minimum(self):
        q = p4.PositivityQuery(1.0, 0.0, 1.0, 1.0, 1.0, 1.1)
        res = p4.pm_positivity(q)
        assert not res.guaranteed          # 1/1.1^4 = 0.683 < 1
        assert np.isfinite(res.min_over_t)

    def test_bundled_medium_row_instances(self):
        # the two combinations discarded by the medium-width solver at the
        # (b, lambda, J, lambda*) = (.1227, 1.316, .8704, .4665) row
        lam, J, b, x = 1.316, 0.8704, 0.1227, 0.4665
        qa = p4.PositivityQuery(2 * J, 2 * J, J * J + 1, lam, lam + b, lam + x)
        ra = p4.pm_positivity(qa)
        assert ra.guaranteed and ra.min_over_t >= -1e-12
        qb = p4.PositivityQuery(0.5, 0.5, 2 * J, lam, lam + b, lam + x)
        rb = p4.pm_positivity(qb)
        assert rb.guaranteed and rb.min_over_t >= -1e-12

    def test_query_validation(self):
        with pytest.raises(DomainError):
            p4.PositivityQuery(1, 1, 1, 2.0, 1.0, 3.0)
        with pytest.raises(InvalidParameterError):
            p4.PositivityQuery(0.0, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("abscissae", [(1, 1, math.inf), (math.inf,) * 3, (math.nan, 1, 1),
                                           (1, math.nan, 1), (1, 1, math.nan)])
    def test_non_finite_abscissa_rejected(self, abscissae):
        with pytest.raises(DomainError, match="require finite"):
            p4.PositivityQuery(1, 1, 1, *abscissae)

    def test_guaranteed_random_queries(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.uniform(0.2, 2.0)
            b = a + rng.uniform(0.0, 1.5)
            c = b + rng.uniform(0.0, 1.5)
            A = rng.uniform(0.1, 2.0)
            B = rng.uniform(0.0, 3.0)
            C = max(0.0, (A / a**4 - B / b**4) * c**4) + rng.uniform(0.0, 1.0)
            res = p4.pm_positivity(p4.PositivityQuery(A, B, C, a, b, c))
            if res.guaranteed:
                assert res.min_over_t >= -1e-12
