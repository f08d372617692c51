"""The two input rules and their one message, at every public entry point.

``errors.positive`` ("a finite real > 0") and ``errors.nonnegative`` ("a
finite real >= 0") are the only writers of these rules.  Each entry point
that takes such a number refuses NaN, +inf, -inf, the first value outside
the rule and a negative value with InvalidParameterError, one message form
and one name for the argument, whichever of those values it is given.
"""

import math

import numpy as np
import pytest

from heckezeros import dh, optimizer, oracles, p4, tables, zero_density as zd, zfr
from heckezeros import trial_functions as tf
from heckezeros.errors import InvalidParameterError, nonnegative, positive

TRI = tf.triangle(2.0)
POLY = ("cc-lp-nonprincipal", 0.1227, 1.097, 0.7788)   # (case, b, lambda, J) of T4

#: rule -> the first value outside it
FIRST_OUTSIDE = {">": 0.0, ">=": -5e-324}

#: (entry point, the name its message gives, rule, call with the bad value)
ENTRIES = [
    ("zfr_solve", "lambda", ">", lambda v: zfr.zfr_solve("order234", v)),
    ("zfr_solve", "phi", ">=", lambda v: zfr.zfr_solve("order234", 0.9421, v)),
    ("zfr_h", "lambda", ">", lambda v: zfr.zfr_h("order234", v)),
    ("side_condition_limit", "lambda", ">", lambda v: zfr.side_condition_limit("principal", v)),
    ("zfr_order5", "phi", ">", lambda v: zfr.zfr_order5(v)),
    ("zfr_order_ge6", "lambda*", ">", lambda v: zfr.zfr_order_ge6(TRI, lam_star=v)),
    ("zfr_order_ge6", "phi", ">=", lambda v: zfr.zfr_order_ge6(TRI, phi=v)),
    ("zfr_optimize", "phi", ">=", lambda v: zfr.zfr_optimize("order234", v)),
    ("combine_L_coefficients", "a", ">", lambda v: zfr.combine_L_coefficients(v, 1)),
    ("combine_L_coefficients", "b", ">=", lambda v: zfr.combine_L_coefficients(1, v)),
    ("ZdQuery", "lambda", ">=", lambda v: zd.ZdQuery(TRI, lam=v)),
    ("ZdQuery", "b", ">=", lambda v: zd.ZdQuery(TRI, lam=0.2, b=v)),
    ("ZdQuery", "phi", ">", lambda v: zd.ZdQuery(TRI, lam=0.2, phi=v)),
    ("optimize_zd", "lambda", ">=", lambda v: optimizer.optimize_zd(v)),
    ("solve_smoothed", "b", ">=", lambda v: dh.solve_smoothed("sz-lp-principal", TRI, v)),
    ("solve_smoothed", "phi", ">=", lambda v: dh.solve_smoothed("sz-lp-principal", TRI, 0.05, v)),
    ("smoothed_h", "b", ">=", lambda v: dh.smoothed_h("sz-lp-principal", TRI, v)),
    ("solve_poly", "b", ">=", lambda v: dh.solve_poly(POLY[0], v, *POLY[2:])),
    ("solve_poly", "lambda", ">", lambda v: dh.solve_poly(*POLY[:2], v, POLY[3])),
    ("solve_poly", "J", ">", lambda v: dh.solve_poly(*POLY[:3], v)),
    ("solve_poly", "phi", ">=", lambda v: dh.solve_poly(*POLY, phi=v)),
    ("poly_h", "lambda", ">", lambda v: dh.poly_h(*POLY[:2], v, POLY[3])),
    ("side_condition", "width x", ">=", lambda v: dh.side_condition(*POLY, v)),
    ("side_limit", "J", ">", lambda v: dh.side_limit(*POLY[:3], v)),
    ("j0_value", "J", ">", lambda v: dh.j0_value(POLY[0], v)),
    ("j1_value", "J", ">", lambda v: dh.j1_value(v)),
    ("very_small_dh", "psi", ">", lambda v: dh.very_small_dh(v, 20.0)),
    ("very_small_dh", "lambda'", ">", lambda v: dh.very_small_dh(1.0, v)),
    ("very_small_inverse", "psi", ">", lambda v: dh.very_small_inverse(v, 0.5)),
    ("cos_bound", "psi", ">", lambda v: dh.cos_bound(0.9873, v)),
    ("piecewise_log_constant", "chain bounds lambda*", ">",
     lambda v: dh.piecewise_log_constant([(0.01, 3.0), (0.05, v)], 0.005)),
    ("maximize_bound", "b", ">=", lambda v: optimizer.maximize_bound(
        optimizer.SearchSpec("sz-lp-principal", v))),
    ("maximize_bound", "phi", ">=", lambda v: optimizer.maximize_bound(
        optimizer.SearchSpec(POLY[0], 0.1, phi=v))),
    ("PositivityQuery", "A", ">", lambda v: p4.PositivityQuery(v, 1, 1, 1, 1, 1)),
    ("PositivityQuery", "B", ">=", lambda v: p4.PositivityQuery(1, v, 1, 1, 1, 1)),
    ("PositivityQuery", "C", ">=", lambda v: p4.PositivityQuery(1, 1, v, 1, 1, 1)),
    ("TrialFunction", "support end x0", ">",
     lambda v: tf.TrialFunction("custom", {}, v, 1.0, TRI, TRI.laplace)),
    ("TrialFunction", "f(0)", ">=",
     lambda v: tf.TrialFunction("custom", {}, 2.0, v, TRI, TRI.laplace)),
    ("triangle", "support end x0", ">", lambda v: tf.triangle(v)),
    ("autocorrelation", "generator support s", ">", lambda v: tf.autocorrelation(s=v)),
    ("regress", "tolerance", ">=", lambda v: tables.regress("T4", tolerance=v)),
    ("scan_root", "scan step", ">", lambda v: oracles.scan_root(lambda x: x - 1.0, 0.0, 2.0, v)),
]


@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "first outside", "negative"])
@pytest.mark.parametrize("name, rule, call", [e[1:] for e in ENTRIES],
                         ids=[f"{e[0]}-{e[1]}" for e in ENTRIES])
def test_every_bounded_input_is_refused_alike(name, rule, call, kind):
    # hand-written checks once named zfr_solve's lambda 'lam' for NaN and
    # 'lambda' for -1, ZdQuery's likewise, very_small_dh's 'lambda_prime' and
    # "lambda'", and solve_smoothed's 'b' and 'width hypothesis b';
    # combine_L_coefficients(nan, 1) gave nan, (1, inf) inf, and
    # PositivityQuery(nan, 1, 1, 1, 1, 1) passed
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "first outside": FIRST_OUTSIDE[rule], "negative": -1.0}[kind]
    with pytest.raises(InvalidParameterError) as err:
        call(value)
    assert str(err.value) == f"{name} must be finite and {rule} 0, got {value!r}"


@pytest.mark.parametrize("value, shown", [(np.float64(-1), "-1.0"), (np.float32(-0.5), "-0.5"),
                                          (np.int64(-3), "-3"), (np.float64(math.nan), "nan")])
def test_numpy_scalar_is_shown_as_its_python_value(value, shown):
    # NumPy 2 wrote "got np.float64(-1.0)"
    with pytest.raises(InvalidParameterError) as err:
        zfr.zfr_solve("order234", value)
    assert str(err.value) == f"lambda must be finite and > 0, got {shown}"


@pytest.mark.parametrize("check, rule, least", [(positive, ">", 5e-324),
                                                (nonnegative, ">=", 0.0)])
def test_rules_accept_every_finite_real_inside(check, rule, least):
    for value in (least, 1, 2.5, 1.7976931348623157e308):
        check("v", value)
    for value in ("1.5", None, 1j, [1.0]):
        with pytest.raises(InvalidParameterError) as err:
            check("v", value)
        assert str(err.value) == f"v must be finite and {rule} 0, got {value!r}"
