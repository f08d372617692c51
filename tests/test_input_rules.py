"""The two input rules and their one message, at every public entry point.

``errors.positive`` ("a finite real > 0") and ``errors.nonnegative`` ("a
finite real >= 0") are the only writers of these rules.  Each entry point
that takes such a number refuses NaN, +inf, -inf, the first value outside
the rule, a negative value and an int past the float range with
InvalidParameterError, one message form and one name for the argument,
whichever of those values it is given.
"""

import math

import numpy as np
import pytest

from heckezeros import dh, optimizer, oracles, p4, tables, zero_density as zd, zfr
from heckezeros import trial_functions as tf
from heckezeros.errors import DomainError, InvalidParameterError, nonnegative, positive

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
    ("bound_from_values", "phi", ">", lambda v: zd.bound_from_values(1.0, 2.0, 0.5, 0.75, v)),
    ("solve_smoothed", "b", ">=", lambda v: dh.solve_smoothed("sz-lp-principal", TRI, v)),
    ("solve_smoothed", "phi", ">=", lambda v: dh.solve_smoothed("sz-lp-principal", TRI, 0.05, v)),
    ("smoothed_h", "b", ">=", lambda v: dh.smoothed_h("sz-lp-principal", TRI, v)),
    ("solve_poly", "b", ">=", lambda v: dh.solve_poly(POLY[0], v, *POLY[2:])),
    ("solve_poly", "lambda", ">", lambda v: dh.solve_poly(*POLY[:2], v, POLY[3])),
    ("solve_poly", "J", ">", lambda v: dh.solve_poly(*POLY[:3], v)),
    ("solve_poly", "phi", ">=", lambda v: dh.solve_poly(*POLY, phi=v)),
    ("poly_h", "lambda", ">", lambda v: dh.poly_h(*POLY[:2], v, POLY[3])),
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
    ("quadrature_laplace", "abs_tol", ">=",
     lambda v: oracles.quadrature_laplace(TRI, 0.5, abs_tol=v)),
    ("positivity_report", "tolerance", ">=",
     lambda v: oracles.positivity_report("c", [1.0], None, v)),
    ("equality_report", "tolerance", ">=",
     lambda v: oracles.equality_report("c", [0.0], None, v)),
]


@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "first outside", "negative",
                                  "past the float range"])
@pytest.mark.parametrize("name, rule, call", [e[1:] for e in ENTRIES],
                         ids=[f"{e[0]}-{e[1]}" for e in ENTRIES])
def test_every_bounded_input_is_refused_alike(name, rule, call, kind):
    # hand-written checks once named zfr_solve's lambda 'lam' for NaN and
    # 'lambda' for -1, ZdQuery's likewise, very_small_dh's 'lambda_prime' and
    # "lambda'", and solve_smoothed's 'b' and 'width hypothesis b';
    # combine_L_coefficients(nan, 1) gave nan, (1, inf) inf, and
    # PositivityQuery(nan, 1, 1, 1, 1, 1) passed; the int 10**400 passed
    # every rule, and then raised OverflowError from float() or passed
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "first outside": FIRST_OUTSIDE[rule], "negative": -1.0,
             "past the float range": 10 ** 400}[kind]
    with pytest.raises(InvalidParameterError) as err:
        call(value)
    assert str(err.value) == f"{name} must be finite and {rule} 0, got {value!r}"


@pytest.mark.parametrize("value, shown", [(np.float64(-1), "-1.0"), (np.float32(-0.5), "-0.5"),
                                          (np.int64(-3), "-3"), (np.float64(math.nan), "nan"),
                                          (np.float32(math.inf), "inf"),
                                          (np.float64(-math.inf), "-inf")])
def test_numpy_scalar_is_shown_as_its_python_value(value, shown):
    # NumPy 2 wrote "got np.float64(-1.0)", for the generator's parameters
    # too, which refuse only a value that is not finite, and s
    refusals = [(lambda: zfr.zfr_solve("order234", value), "lambda must be finite and > 0"),
                (lambda: tf.autocorrelation(s=value),
                 "generator support s must be finite and > 0")]
    if not math.isfinite(value):
        refusals += [(lambda n=n: tf.autocorrelation(**{n: value}),
                      f"autocorrelation parameter {n} must be finite")
                     for n in ("alpha", "c0", "c1", "beta")]
    for call, rule in refusals:
        with pytest.raises(InvalidParameterError) as err:
            call()
        assert str(err.value) == f"{rule}, got {shown}"


@pytest.mark.parametrize("check, rule, least", [(positive, ">", 5e-324),
                                                (nonnegative, ">=", 0.0)])
def test_rules_accept_every_finite_real_inside(check, rule, least):
    for value in (least, 1, 2.5, 1.7976931348623157e308):
        check("v", value)
    for value in ("1.5", None, 1j, [1.0], True):   # True passed as 1
        with pytest.raises(InvalidParameterError) as err:
            check("v", value)
        assert str(err.value) == f"v must be finite and {rule} 0, got {value!r}"


#: what an entry point that takes a number must refuse with its own error
NOT_NUMBERS = ("1e-9", None, 1j)


@pytest.mark.parametrize("value", [*NOT_NUMBERS, True])
def test_a_chain_bound_that_is_not_a_number_is_refused(value):
    # the chain was read by float() first: "1e-9" and True gave a constant,
    # None and 1j a TypeError
    with pytest.raises(InvalidParameterError) as err:
        dh.piecewise_log_constant([(0.01, 3.0), (0.05, value)], 0.005)
    assert str(err.value) == f"chain bounds lambda* must be finite and > 0, got {value!r}"


@pytest.mark.parametrize("value", ["0.005", None])
@pytest.mark.parametrize("where", ["b_min", "row"])
def test_a_chain_width_that_is_not_a_number_is_refused(where, value):
    # b_min gave a TypeError from 0.0 < b < 1.0, a row's width "0.005" a
    # constant and None a TypeError
    rows = [(0.01, 3.0), (0.05, 2.0)]
    if where == "row":
        rows, b_min = [(value, 3.0), (0.05, 2.0)], 0.001
    else:
        b_min = value
    with pytest.raises(DomainError) as err:
        dh.piecewise_log_constant(rows, b_min)
    assert str(err.value) == f"chain widths must lie in (0, 1), got {value!r}"


#: the oracles' tolerances, which a str once reached as a TypeError
ORACLE_TOLERANCES = [e for e in ENTRIES
                     if e[0] in ("quadrature_laplace", "positivity_report", "equality_report")]


@pytest.mark.parametrize("value", NOT_NUMBERS)
@pytest.mark.parametrize("name, rule, call", [e[1:] for e in ORACLE_TOLERANCES],
                         ids=[e[0] for e in ORACLE_TOLERANCES])
def test_an_oracle_tolerance_that_is_not_a_number_is_refused(name, rule, call, value):
    # abs_tol="1e-9" raised TypeError, after the first sampling
    with pytest.raises(InvalidParameterError) as err:
        call(value)
    assert str(err.value) == f"{name} must be finite and {rule} 0, got {value!r}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "1e-9"])
def test_quadrature_refuses_its_tolerance_before_any_sampling(value):
    # a NaN abs_tol sampled all 4,097 nodes and then reported no
    # convergence; an infinite one accepted the first level it could
    def f(t):
        raise AssertionError("sampled")

    f.x0 = 2.0
    with pytest.raises(InvalidParameterError):
        oracles.quadrature_laplace(f, 0.5, abs_tol=value)


@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("value", [*NOT_NUMBERS, math.nan, -math.inf, True])
def test_scan_bounds_that_are_not_finite_reals_are_refused(end, value):
    # a str or None raised TypeError from math.isfinite; True scanned from
    # or to 1
    lo, hi = (value, 2.0) if end == "lo" else (0.0, value)
    with pytest.raises(InvalidParameterError) as err:
        oracles.scan_root(lambda x: x - 1.0, lo, hi, 1e-3)
    assert str(err.value) == f"scan bounds must be finite, got [{lo}, {hi}]"


@pytest.mark.parametrize("arg", ["a", "b"])
@pytest.mark.parametrize("value", [*NOT_NUMBERS, math.nan, math.inf, -1.0, True])
def test_repel_reduce_refuses_what_is_not_a_finite_real_at_least_0(arg, value):
    # a str raised TypeError; True reduced as 1 (repel_reduce(TRI, True, 0.1)
    # was 0.3771)
    a, b = (value, 0.1) if arg == "a" else (0.1, value)
    with pytest.raises(DomainError) as err:
        tf.repel_reduce(TRI, a, b)
    assert str(err.value) == f"repel_reduce requires finite a, b >= 0, got a={a}, b={b}"


#: (search, call with the budget); the non-numbers raised TypeError from a
#: comparison
BUDGETS = [
    ("maximize_bound", lambda v: optimizer.maximize_bound(
        optimizer.SearchSpec("cc-lp-nonprincipal", 0.1, max_evals=v))),
    ("optimize_family_smoothed",
     lambda v: optimizer.optimize_family_smoothed("sz-lp-principal", 0.1, budget=v)),
    ("optimize_zd", lambda v: optimizer.optimize_zd(0.2, budget=v)),
    ("regress", lambda v: tables.regress("T2:principal", budget=v)),
    # a quartic table's regression reads no budget, and checks it all the same
    ("regress T4", lambda v: tables.regress("T4", budget=v)),
    ("regress T3:principal", lambda v: tables.regress("T3:principal", budget=v)),
]


@pytest.mark.parametrize("value, shown", [("5", "'5'"), (None, "None"), (1j, "1j"), ("3", "'3'"),
                                          (math.nan, "nan"), (math.inf, "inf"), (0.5, "0.5"),
                                          (np.float64(0.0), "0.0"), (True, "True"),
                                          (10 ** 400, repr(10 ** 400))])
@pytest.mark.parametrize("call", [c for _, c in BUDGETS], ids=[n for n, _ in BUDGETS])
def test_a_budget_that_is_not_a_finite_number_at_least_1_is_refused(call, value, shown):
    # True ran a search of one unit: maximize_bound(SearchSpec(
    # "cc-lp-nonprincipal", 0.1227, max_evals=True)) returned 0.73703
    with pytest.raises(InvalidParameterError) as err:
        call(value)
    assert str(err.value) == f"search budget must be a finite number >= 1, got {shown}"


@pytest.mark.parametrize("name", ["alpha", "c0", "c1", "beta", "s"])
def test_an_autocorrelation_parameter_that_is_a_bool_is_refused(name):
    # True was built as 1.0: autocorrelation(alpha=True) had alpha = 1.0
    want = ("generator support s must be finite and > 0" if name == "s"
            else f"autocorrelation parameter {name} must be finite")
    with pytest.raises(InvalidParameterError) as err:
        tf.autocorrelation(**{name: True})
    assert str(err.value) == f"{want}, got True"


#: the hand-written range and lookup checks, each with its own message:
#: (site, error, call with the value)
OWN_CHECKS = [
    ("check_vartheta", InvalidParameterError, lambda v: zd.check_vartheta(v)),
    ("ZdQuery-vartheta", InvalidParameterError, lambda v: zd.ZdQuery(TRI, lam=0.2, vartheta=v)),
    ("optimize_zd-vartheta", InvalidParameterError,
     lambda v: optimizer.optimize_zd(0.2, vartheta=v)),
    ("bound_from_values-vartheta", InvalidParameterError,
     lambda v: zd.bound_from_values(1.0, 2.0, 0.5, v, 0.25)),
    ("combine_L_coefficients-vartheta", InvalidParameterError,
     lambda v: zfr.combine_L_coefficients(1, 1, vartheta=v)),
    ("cos_bound-theta", InvalidParameterError, lambda v: dh.cos_bound(v, 1.0)),
    ("very_small_inverse-lambda1", InvalidParameterError,
     lambda v: dh.very_small_inverse(1.0, v)),
    ("very_small_dh-c1", InvalidParameterError, lambda v: dh.very_small_dh(1.0, 20.0, c1=v)),
    ("PositivityQuery-a", DomainError, lambda v: p4.PositivityQuery(1, 1, 1, v, 1, 1)),
    ("PositivityQuery-b", DomainError, lambda v: p4.PositivityQuery(1, 1, 1, 1, v, 1)),
    ("PositivityQuery-c", DomainError, lambda v: p4.PositivityQuery(1, 1, 1, 1, 1, v)),
    ("gm_check-m", DomainError, lambda v: p4.gm_check(1, 1, v, 1.5, 1.5, 0.0)),
    ("gm_check-x", DomainError, lambda v: p4.gm_check(1, 1, 1, v, 1.5, 0.0)),
    ("gm_check-y", DomainError, lambda v: p4.gm_check(1, 1, 1, 1.5, v, 0.0)),
    ("gm_check-V", DomainError, lambda v: p4.gm_check(v, 1, 1, 1.5, 1.5, 0.0)),
    ("gm_check-W", DomainError, lambda v: p4.gm_check(1, v, 1, 1.5, 1.5, 0.0)),
    ("gm_guaranteed-m", DomainError, lambda v: p4.gm_guaranteed(1, 1, v, 1.5, 1.5)),
    ("gm_guaranteed-x", DomainError, lambda v: p4.gm_guaranteed(1, 1, 1, v, 1.5)),
    ("load_table", InvalidParameterError, lambda v: tables.load_table(v)),
    ("dh.get_case", InvalidParameterError, lambda v: dh.get_case(v)),
    ("zfr.get_case", InvalidParameterError, lambda v: zfr.get_case(v)),
]


@pytest.mark.parametrize("value", ["0.8", None, 1j, True])
@pytest.mark.parametrize("error, call", [c[1:] for c in OWN_CHECKS],
                         ids=[c[0] for c in OWN_CHECKS])
def test_a_hand_written_check_refuses_what_is_not_a_number(error, call, value):
    # check_vartheta took True as 1.0 and raised TypeError on "0.8" or None;
    # cos_bound took theta=True, very_small_dh c1=True, PositivityQuery
    # a=True and gm_check m=True, and a str theta, lambda1, a, b, c, x, y,
    # V or W raised TypeError, as did load_table(None) (AttributeError)
    with pytest.raises(error) as err:
        call(value)
    assert repr(value) in str(err.value)


#: the checks outside ENTRIES that the int 10**400 passed, before an
#: OverflowError from float() or silently: (site, error, call with it)
PAST_THE_FLOAT_RANGE = [
    *((f"autocorrelation-{n}", InvalidParameterError,
       lambda v, n=n: tf.autocorrelation(**{n: v})) for n in ("alpha", "c0", "c1", "beta")),
    ("laplace_real", DomainError, lambda v: TRI.laplace_real(v)),
    ("laplace_real-negative", DomainError, lambda v: TRI.laplace_real(-v)),
    ("repel_reduce-a", DomainError, lambda v: tf.repel_reduce(TRI, v, 0.1)),
    ("repel_reduce-b", DomainError, lambda v: tf.repel_reduce(TRI, 0.1, v)),
    ("re_p4_identity-b", DomainError, lambda v: p4.re_p4_identity(1.0, v, 0.5)),
    ("re_p4_identity-a-b", DomainError, lambda v: p4.re_p4_identity(v, v, 0.5)),
    ("gm_check-x", DomainError, lambda v: p4.gm_check(1, 1, 1, v, 1.5, 0.0)),
    ("gm_check-V", DomainError, lambda v: p4.gm_check(v, 1, 1, 1.5, 1.5, 0.0)),
    ("gm_guaranteed-y", DomainError, lambda v: p4.gm_guaranteed(1, 1, 1, 1.5, v)),
    ("PositivityQuery-c", DomainError, lambda v: p4.PositivityQuery(1, 1, 1, 1, 1, v)),
    ("scan_root-hi", InvalidParameterError,
     lambda v: oracles.scan_root(lambda x: x - 1.0, 0.0, v, 1e-3)),
    ("bound_from_values", InvalidParameterError,
     lambda v: zd.bound_from_values(1.0, v, 0.5, 0.75, 0.25)),
    ("expand_trig_square_product", InvalidParameterError,
     lambda v: zfr.expand_trig_square_product(v, 10, 9, 10)),
]


@pytest.mark.parametrize("error, call", [c[1:] for c in PAST_THE_FLOAT_RANGE],
                         ids=[c[0] for c in PAST_THE_FLOAT_RANGE])
def test_an_int_past_the_float_range_is_refused(error, call):
    # PositivityQuery took it, repel_reduce(TRI, 0.1, 10**400) gave 0.1403
    # (b >= a reads no b) and gm_guaranteed(1, 1, 1, 1.5, 10**400) False;
    # the rest raised OverflowError: int too large to convert to float
    with pytest.raises(error) as err:
        call(10 ** 400)
    assert repr(10 ** 400) in str(err.value)


@pytest.mark.parametrize("get_case", [dh.get_case, zfr.get_case], ids=["dh", "zfr"])
def test_a_case_that_is_no_key_is_refused(get_case):
    # a list raised TypeError: unhashable
    with pytest.raises(InvalidParameterError, match=r"^unknown .*case \['x'\]; available: "):
        get_case(["x"])


class _Probe:
    """A plug-in weight's evaluators that record every call they get."""

    def __init__(self):
        self.calls = []

    def eval(self, t):
        self.calls.append(("f", t))
        return np.zeros(np.shape(t))

    def laplace(self, z):
        self.calls.append(("F", z))
        return np.ones(np.shape(z), dtype=complex)


#: the transform and oracle points that are not numbers: (entry point, call
#: with a weight, the point).  At the parent laplace_real took "1.5" as F(1.5)
#: and True and b"1" as F(1), laplace and f(t) parsed a str, the quadrature
#: integrated at "0.5" and "1+2j", and None raised TypeError there and in
#: laplace_real, as 10**400 raised OverflowError in the quadrature
NOT_A_POINT = [
    ("laplace_real", lambda f, v: f.laplace_real(v), "1.5"),
    ("laplace_real", lambda f, v: f.laplace_real(v), True),
    ("laplace_real", lambda f, v: f.laplace_real(v), b"1"),
    ("laplace_real", lambda f, v: f.laplace_real(v), None),
    ("laplace", lambda f, v: f.laplace(v), "1.5"),
    ("f(t)", lambda f, v: f(v), "1.0"),
    ("quadrature_laplace", lambda f, v: oracles.quadrature_laplace(f, v), "0.5"),
    ("quadrature_laplace", lambda f, v: oracles.quadrature_laplace(f, v), "1+2j"),
    ("quadrature_laplace", lambda f, v: oracles.quadrature_laplace(f, v), None),
    ("quadrature_laplace", lambda f, v: oracles.quadrature_laplace(f, v), 10 ** 400),
]


@pytest.mark.parametrize("call, value", [c[1:] for c in NOT_A_POINT],
                         ids=[f"{c[0]}-{c[2]!r:.12}" for c in NOT_A_POINT])
def test_a_point_that_is_not_a_number_is_refused_before_any_work(call, value):
    with pytest.raises(DomainError) as err:
        call(TRI, value)
    assert repr(value) in str(err.value)
    probe = _Probe()
    plug_in = tf.TrialFunction("probe", {}, 2.0, 2.0, probe.eval, probe.laplace)
    with pytest.raises(DomainError):
        call(plug_in, value)
    assert probe.calls == []


@pytest.mark.parametrize("value", [True, "1.5", None, b"1"])
@pytest.mark.parametrize("call", [TRI.laplace, TRI], ids=["laplace", "f(t)"])
def test_an_array_that_holds_what_is_not_a_number_is_refused(call, value):
    with pytest.raises(DomainError, match="requires numbers, got an array of object"):
        call(np.array([0.5, value], dtype=object))


def test_an_object_array_of_numbers_is_read_as_their_values():
    # an int past int64, a Fraction and a complex: laplace reads the array
    # as complexes, f(t) as floats
    from fractions import Fraction
    z = np.array([0.5, 1j, Fraction(1, 4), 2 ** 70], dtype=object)
    assert TRI.laplace(z).tolist() == TRI.laplace(np.array([0.5, 1j, 0.25, 2.0 ** 70])).tolist()
    t = np.array([Fraction(1, 2), 2 ** 70], dtype=object)
    assert TRI(t).tolist() == TRI(np.array([0.5, 2.0 ** 70])).tolist()


def test_f_refuses_a_complex_t():
    for t in (1j, np.array([0.5, 1j])):
        with pytest.raises(DomainError, match="^f\\(t\\) requires numbers"):
            TRI(t)


def test_numbers_of_every_kind_stay_points():
    # ints, NumPy scalars, an int past int64 that a float holds and a
    # Fraction keep their values
    from fractions import Fraction
    assert TRI.laplace_real(np.float64(0.5)) == TRI.laplace_real(0.5) == TRI.laplace_real(
        Fraction(1, 2))
    assert TRI.laplace(np.int64(1)) == TRI.laplace(1) == complex(TRI.laplace_real(1.0))
    assert TRI(2 ** 70) == 0.0 and TRI(np.array([0, 1])).tolist() == [2.0, 1.0]
    assert (oracles.quadrature_laplace(TRI, np.complex128(0.5 + 1j))
            == oracles.quadrature_laplace(TRI, 0.5 + 1j))


@pytest.mark.parametrize("report", [lambda v: oracles.positivity_report("probe check", v, None),
                                    lambda v: oracles.equality_report("probe check", v, None,
                                                                      1e-9)],
                         ids=["positivity", "equality"])
def test_a_report_on_no_values_names_its_check(report):
    # at the parent: ValueError: attempt to get argmin of an empty sequence
    with pytest.raises(InvalidParameterError, match="^check 'probe check' has no values"):
        report([])
