"""Zero-density bound: preconditions, formula identities, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckezeros import trial_functions as tf, zero_density as zd
from heckezeros.errors import BoundUnavailableError, InvalidParameterError


class TestPreconditions:
    def test_zero_gap_maximizes_first_condition(self):
        f = tf.triangle(2.0)
        q = zd.ZdQuery(f, lam=0.7, b=0.7)
        c1, _ = zd.zd_preconditions(q)
        assert c1  # F(0) = 2 against (4/3)*2*(1/4) = 2/3

    def test_small_support_fails(self):
        q = zd.ZdQuery(tf.triangle(0.1), lam=2.0, b=0.0)
        c1, _ = zd.zd_preconditions(q)
        assert not c1

    def test_specialization_of_first_condition(self):
        # (1/vt) phi = 1/3 at vt = 3/4, phi = 1/4
        f = tf.triangle(5.0)
        q = zd.ZdQuery(f, lam=0.3)
        c1, _ = zd.zd_preconditions(q)
        assert c1 == (float(f.laplace(0.3).real) > f.f0 / 3.0)

    def test_vartheta_validation(self):
        with pytest.raises(InvalidParameterError):
            zd.ZdQuery(tf.triangle(1.0), lam=0.2, vartheta=0.5)

    @pytest.mark.parametrize("arg", ["lam", "b", "phi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, arg, bad):
        kwargs = {"lam": 0.2, "b": 0.0, "phi": 0.25, arg: bad}
        with pytest.raises(InvalidParameterError, match=arg):
            zd.ZdQuery(tf.triangle(8.0), **kwargs)


class TestBound:
    @given(f0=st.floats(0.5, 5.0), r1=st.floats(1.0, 10.0), r2=st.floats(0.4, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_general_formula_specializes(self, f0, r1, r2):
        F_minus_b = f0 * r1
        F_gap = f0 / 3.0 + 1e-3 + (F_minus_b - f0 / 3.0 - 1e-3) * r2
        general = zd.bound_from_values(f0, F_minus_b, F_gap, 0.75, 0.25)
        special = zd.mt_bound_from_values(f0, F_minus_b, F_gap)
        assert abs(general - special) <= 1e-12 * (1.0 + abs(special))

    def test_denominator_positivity_iff_second_condition(self):
        f = tf.triangle(6.0)
        for lam in np.linspace(0.05, 0.6, 40):
            q = zd.ZdQuery(f, float(lam))
            _, c2 = zd.zd_preconditions(q)
            t = q.phi * f.f0 / q.vartheta
            den = ((float(f.laplace(lam).real) - t) ** 2
                   - t * (q.phi * f.f0 + float(f.laplace(0.0).real)))
            assert c2 == (den > 0)

    def test_failure_raises(self):
        with pytest.raises(BoundUnavailableError):
            zd.n_lambda_bound(zd.ZdQuery(tf.triangle(0.1), lam=2.0))

    def test_nondecreasing_in_height(self):
        f = tf.triangle(6.0)
        vals = []
        for lam in np.linspace(0.05, 0.4, 30):
            vals.append(zd.n_lambda_bound(zd.ZdQuery(f, float(lam))))
        assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(vals, vals[1:]))

    def test_zero_gap_minimizes_bound_over_b(self):
        # at b = lambda the squared term uses F(0), the largest value
        f = tf.triangle(6.0)
        lam = 0.3
        ref = zd.n_lambda_bound(zd.ZdQuery(f, lam, b=lam))
        for b in np.linspace(0.0, lam, 7):
            assert ref <= zd.n_lambda_bound(zd.ZdQuery(f, lam, b=float(b))) + 1e-9

    def test_integer_form_floor_guard(self):
        f = tf.triangle(6.0)
        q = zd.ZdQuery(f, 0.2)
        v = zd.n_lambda_bound(q)
        assert zd.n_lambda_int(q) == math.floor(v + 1e-6)


def _parent_preconditions(f0, F_minus_b, F_gap, vartheta, phi):
    """The two preconditions as separate comparisons: the reference for
    reading precondition 2 as the denominator's sign."""
    t = phi * f0 / vartheta
    return bool(F_gap > t), bool((F_gap - t) ** 2 > t * (phi * f0 + F_minus_b))


def _parent_bound(f0, F_minus_b, F_gap, vartheta, phi):
    t = phi * f0 / vartheta
    num = (phi * f0 + F_minus_b) * (F_minus_b - (1.0 / vartheta - 1.0) * phi * f0)
    den = (F_gap - t) ** 2 - t * (phi * f0 + F_minus_b)
    return num / den


def _outcome(fn, *args):
    """repr of fn's value (NaN and -0.0 to the bit), or the exception it raises."""
    try:
        return repr(fn(*args))
    except (ZeroDivisionError, InvalidParameterError) as exc:
        return type(exc).__name__


def _density_inputs(rng, n):
    """Seeded raw values (f0, F(-b), F(lambda-b), vartheta, phi): random
    magnitudes, infinities, NaN, F(lambda-b) at and next to t, and exact
    zero denominators."""
    special = (0.0, 5e-324, math.inf, -math.inf, math.nan)
    for i in range(n):
        kind = i % 4
        if kind == 3:
            # f0 = 2, phi = 1/2, vt = 1: t = 1 and (F_gap - 1)^2 = d^2 = t (1 + F(-b))
            d = float(rng.integers(1, 1000))
            yield 2.0, d * d - 1.0, 1.0 + d * float(rng.choice([-1.0, 1.0])), 1.0, 0.5
            continue
        f0 = 10.0 ** rng.uniform(-6.0, 6.0)
        vartheta = float(rng.choice([0.75, 1.0, rng.uniform(0.75, 1.0)]))
        phi = float(rng.choice([0.25, rng.uniform(1e-3, 1.0)]))
        t = phi * f0 / vartheta
        F_minus_b = f0 * 10.0 ** rng.uniform(-3.0, 3.0) * float(rng.choice([-1.0, 1.0]))
        if rng.random() < 0.1:
            F_minus_b = float(rng.choice(special))
        if kind == 0:
            F_gap = t
        elif kind == 1:
            F_gap = t * (1.0 + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-17.0, 0.0))
        else:
            F_gap = f0 * 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.05:
            F_gap = float(rng.choice(special))
        yield f0, F_minus_b, F_gap, vartheta, phi


def test_one_evaluation_matches_the_two_formulas_to_the_bit():
    """The bound and both preconditions are the two separate formulas', to
    the bit, on every input: precondition 2 read as the denominator's sign.
    ``bound_from_values`` refuses a value that is not finite, where the
    formula gives NaN or inf."""
    rng = np.random.default_rng(20261019)
    zero_dens = equal_gaps = 0
    for args in _density_inputs(rng, 8000):
        want = _parent_preconditions(*args)
        assert zd._evaluate(*args)[:2] == want, args
        bound = _outcome(_parent_bound, *args)
        finite = all(map(math.isfinite, args[:3]))
        assert _outcome(zd.bound_from_values, *args) == (
            bound if finite else "InvalidParameterError"), args
        admissible = bound if all(want) else repr(None)
        assert _outcome(zd.bound_if_admissible, *args) == admissible, args
        zero_dens += bound == "ZeroDivisionError"
        equal_gaps += args[2] == args[4] * args[0] / args[3]
    assert zero_dens > 1000 and equal_gaps > 1000


@pytest.mark.parametrize("values", [(1.0, math.nan, 0.5), (1.0, math.inf, 0.5),
                                    (1.0, 2.0, -math.inf), (math.nan, 2.0, 0.5)])
def test_a_value_that_is_not_finite_is_refused(values):
    # bound_from_values(1.0, nan, 0.5, 0.75, 0.25) gave nan, as did
    # mt_bound_from_values(1.0, nan, 0.5); (1.0, inf, 0.5) gave nan too
    for call in (lambda: zd.bound_from_values(*values, 0.75, 0.25),
                 lambda: zd.mt_bound_from_values(*values)):
        with pytest.raises(InvalidParameterError, match="must be finite, got "):
            call()


def test_density_square_overflow_is_refused():
    # (F(lambda - b) - t) ** 2 raised a bare OverflowError; the weight is valid
    f = tf.autocorrelation(alpha=5.0, s=40.0)
    assert 5e172 < f.f0 < 6e172
    for call in (lambda: zd.n_lambda_bound(zd.ZdQuery(f, 0.2)),
                 lambda: zd.zd_preconditions(zd.ZdQuery(f, 0.2)),
                 lambda: zd.bound_if_admissible(1.0, 1.0, 1e200, 0.75, 0.25)):
        with pytest.raises(InvalidParameterError,
                           match=r"^F\(lambda - b\) - phi f0/vartheta = .* its power 2 overflows"):
            call()
    # the collapsed form squares the same way: a bare OverflowError, once
    with pytest.raises(InvalidParameterError,
                       match=r"^F\(lambda\) - f0/3 = 1e\+200 is too large: its power 2 overflows"):
        zd.mt_bound_from_values(1.0, 1e200, 1e200)


def test_integer_form_keeps_inf_and_refuses_nan():
    # +inf is the "no bound" value of optimize_zd and T1's cells; it raised
    # OverflowError, and NaN ValueError
    assert zd.int_bound(math.inf) == math.inf
    assert zd.int_bound(3.9999995) == 4 and zd.int_bound(-0.5) == -1
    for bad, shown in ((math.nan, "nan"), (-math.inf, "-inf"), ("4", "'4'"), (True, "True")):
        with pytest.raises(InvalidParameterError) as err:
            zd.int_bound(bad)
        assert str(err.value) == f"bound must be finite or +inf, got {shown}"


def test_recipe_theta():
    assert zd.recipe_theta(0.2, 0.0) == pytest.approx(1.63 - 4.35 * 0.2)
    assert zd.recipe_theta(0.1, 0.0875) == pytest.approx(1.63 + 1.28 * 0.0875 - 0.435)
