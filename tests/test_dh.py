"""Repulsion solvers: case wiring, roots, side conditions, closed forms."""

import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckezeros import _kernels, dh, oracles, trial_functions as tf
from heckezeros.errors import InvalidParameterError, NoBoundError, SideConditionError
from heckezeros.optimizer import SearchSpec, maximize_bound

E = math.e


class TestCaseTable:
    def test_smoothed_wiring_matches_source_lemmas(self):
        expect = {
            "sz-lp-quadratic": (4.0, 2),
            "sz-lp-principal": (2.0, 2),
            "sz-l2-nonprincipal": (4.0, 1),
            "sz-l2-chi1-principal": (2.0, 1),
            "sz-l2-chi2-principal": (4.0, 2),
        }
        for name, (psi, c1) in expect.items():
            case = dh.get_case(name)
            assert case.psi_over_phi == psi
            assert case.c1 == c1
            assert case.method == "smoothed"

    def test_j0_formulas(self):
        J = 0.8704
        assert dh.get_case("sz-lp-quadratic-medium")._sides.j0(J) == pytest.approx(
            min(J / 2 + 1 / (2 * J), 4 * J))
        assert dh.get_case("cc-lp-nonprincipal")._sides.j0(J) == pytest.approx(
            min(J + 3 / (4 * J), 4 * J))
        assert dh._SideConditions.j1(J) == pytest.approx(4 * J / (J * J + 1))

    def test_unknown_case(self):
        with pytest.raises(InvalidParameterError):
            dh.get_case("nope")

    @pytest.mark.parametrize("name", dh.POLY_CASES)
    def test_a_used_case_record_pickles(self, name):
        # a poly case keeps its side-condition statement once read; the
        # record still pickles, and the copy states the same conditions
        case = dh.get_case(name)
        dh.solve_poly(case, 0.1227, 1.1, 0.8)
        copy = pickle.loads(pickle.dumps(case))
        assert copy == case
        assert (copy._sides.margin(0.1227, 1.1, 0.8, 0.3)
                == case._sides.margin(0.1227, 1.1, 0.8, 0.3))

    def test_case_by_name_or_record(self):
        # every entry point takes either; the searches took names only
        record = dh.CASES["cc-lp-nonprincipal"]
        assert dh.get_case(record) is record is dh.get_case("cc-lp-nonprincipal")
        assert (maximize_bound(SearchSpec(record, 0.1227))
                == maximize_bound(SearchSpec("cc-lp-nonprincipal", 0.1227)))


class TestSolveSmoothed:
    def test_root_bracketing_and_scan_agreement(self):
        f = tf.triangle(2.5)
        res = dh.solve_smoothed("sz-lp-quadratic", f, 0.01)
        h = dh.smoothed_h("sz-lp-quadratic", f, 0.01)
        assert res.residual <= 1e-9
        assert float(h(res.lambda_star - 1e-6)) < 0 < float(h(res.lambda_star + 1e-6))
        scanned = oracles.scan_root(h, 0.01, 60.0, 1e-6)
        assert abs(scanned - res.lambda_star) <= 2e-6

    @pytest.mark.parametrize("name", ["cc-l2-chi2-principal-real", "sz-lp-quadratic"])
    @pytest.mark.parametrize("b", [0.0, 1e-5, 0.3])
    @pytest.mark.parametrize("f", [tf.triangle(2.5), tf.autocorrelation(alpha=0.3, s=2.5),
                                   tf.autocorrelation(alpha=-0.4, c0=1.0, c1=0.8, beta=1.1,
                                                      s=3.5)], ids=["triangle", "plain", "cosine"])
    def test_smoothed_h_constants_are_the_one_point_calls(self, name, b, f):
        # h's constants F(0) and, for 'cc', F(-b) come from one array call;
        # each has the bits of an array call at its point alone, F(-0.0) at
        # b = 0, and so does h on a grid
        case = dh.get_case(name)

        def F(r):   # one array call per point
            r = np.asarray(r, dtype=float)
            return f.laplace(r.reshape(-1)).real.reshape(r.shape)

        want = _kernels.smoothed_fn(F, case.form, case.c1, case.psi_over_phi * dh.PHI, b, f.f0)
        xs = np.linspace(0.0, 3.0, 61)
        got, ref = dh.smoothed_h(case, f, b)(xs), want(xs)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_degenerate_weight_reports_no_bound(self):
        # psi f(0) = F(0) exactly for the width-2 triangle in the quadratic case
        with pytest.raises(NoBoundError) as err:
            dh.solve_smoothed("sz-lp-quadratic", tf.triangle(2.0), 0.01)
        assert err.value.sign == "positive"

    @pytest.mark.parametrize("case", ["sz-lp-quadratic", "sz-l2-nonprincipal",
                                      "sz-l2-chi2-principal"])
    @pytest.mark.parametrize("f", [tf.triangle(2.0), tf.autocorrelation(alpha=0.0, s=2.0)],
                             ids=["triangle", "autocorrelation"])
    def test_vanishing_h_is_degenerate(self, case, f):
        # at b = 0 the 'sz' h is the constant psi f(0) - F(0), exactly 0 here
        with pytest.raises(NoBoundError, match="degenerate") as err:
            dh.solve_smoothed(case, f, 0.0)
        assert err.value.sign is None

    def test_small_weight_no_bound(self):
        with pytest.raises(NoBoundError) as err:
            dh.solve_smoothed("sz-lp-principal", tf.triangle(0.9), 0.05)
        assert err.value.sign == "positive"

    def test_cc_form_root(self):
        f = tf.triangle(4.0)
        res = dh.solve_smoothed("cc-l2-nonprincipal", f, 0.1227)
        # F(x - b) = F(-b) - F(0) + psi f(0) at the root
        want = (f.laplace(-0.1227) - f.laplace(0.0)).real + 1.0 * 4.0
        got = f.laplace(res.lambda_star - 0.1227).real
        assert got == pytest.approx(want, rel=1e-10)

    def test_root_past_bracket_reported_as_stays_negative(self):
        # the distinct unbounded-side outcome: at b = 0 and phi = 0 the 'cc'
        # h is -F(x), negative on all of [0, HI], so no sign change lies in it
        f = tf.triangle(4.0)
        h = dh.smoothed_h("cc-l2-nonprincipal", f, 0.0, phi=0.0)
        assert (h(np.linspace(0.0, dh.HI, 61)) < 0.0).all()
        with pytest.raises(NoBoundError, match=r"h stays negative on \[0, 60\.0\]") as err:
            dh.solve_smoothed("cc-l2-nonprincipal", f, 0.0, phi=0.0)
        assert err.value.sign == "negative"

    def test_heavy_weight_cc_form_is_degenerate(self):
        # F(0) - 2F(b) + psi f(0) > 0 already at width 0 for a wide triangle
        # at a sizable width hypothesis: nothing certifiable
        with pytest.raises(NoBoundError) as err:
            dh.solve_smoothed("sz-lp-quadratic", tf.triangle(14.0), 0.2)
        assert err.value.sign == "positive"

    def test_monotone_in_width(self):
        f = tf.triangle(1.5)
        vals = [dh.solve_smoothed("sz-lp-principal", f, b).lambda_star
                for b in (0.01, 0.05, 0.1, 0.2)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("arg", ["b", "phi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, arg, bad):
        kwargs = {"b": 0.05, "phi": dh.PHI, arg: bad}
        with pytest.raises(InvalidParameterError, match=arg):
            dh.solve_smoothed("sz-lp-principal", tf.triangle(1.5), **kwargs)

    @pytest.mark.parametrize("case, b, phi, named", [
        ("cc-lp-nonprincipal", 0.1, dh.PHI, "not a smoothed case"),
        ("sz-lp-principal", math.nan, dh.PHI, "b"), ("sz-lp-principal", -0.1, dh.PHI, "b"),
        ("sz-lp-principal", 0.1, -0.25, "phi")])
    def test_smoothed_h_checks_as_the_solver(self, case, b, phi, named):
        # smoothed_h built an 'sz' h for a poly case (-0.6229 at x = 1 for
        # cc-lp-nonprincipal) and took a NaN or negative b
        for call in (dh.smoothed_h, dh.solve_smoothed):
            with pytest.raises(InvalidParameterError, match=named):
                call(case, tf.triangle(2.0), b, phi)

    def test_negative_phi_rejected(self):
        # a negative phi flips the sign of the psi f(0) term; phi = 0 is allowed
        with pytest.raises(InvalidParameterError, match="phi"):
            dh.solve_smoothed("sz-lp-principal", tf.triangle(1.5), 0.05, phi=-0.25)
        with pytest.raises(InvalidParameterError, match="phi"):
            dh.solve_poly("cc-lp-nonprincipal", 0.1227, 1.097, 0.7788, phi=-0.25)
        dh.check_width(0.05, 0.0)

    def test_nan_transform_is_reported_as_nan(self):
        # a NaN is the weight's fault, not an overflow: no bracket halving and
        # no "degenerate" sign
        f = tf.triangle(1.5)
        broken = tf.TrialFunction("plugin", {}, f.x0, f.f0, f,
                                  lambda z: np.full(np.shape(z), np.nan) + 0j)
        with pytest.raises(NoBoundError, match="NaN") as err:
            dh.solve_smoothed("sz-lp-principal", broken, 0.05)
        assert err.value.sign is None
        assert "[0, 60.0]" in str(err.value)

    def test_wide_support_does_not_overflow(self):
        # e^{x0 hi} overflows at the default bracket end; the solver shrinks it
        res = dh.solve_smoothed("sz-lp-quadratic", tf.triangle(14.0), 0.01)
        assert math.isfinite(res.lambda_star)
        assert res.residual <= 1e-9

    @pytest.mark.parametrize("name,b", [("cc-l2-chi2-principal-real", 0.2),
                                        ("cc-l2-nonprincipal", 0.05),
                                        ("sz-lp-principal", 0.05)])
    def test_residual_scales_by_the_terms_h_reads(self, name, b):
        # 'sz' h reads F(-x) and F(b - x); 'cc' h reads F(-b), F(0) and
        # F(x - b), never F(-x), which at triangle(8) and b = 0.2 is 61.8
        f, case = tf.triangle(8.0), dh.get_case(name)
        res = dh.solve_smoothed(case, f, b)
        F = functools.partial(_kernels._f_real_scalar, f.kernel_code())
        h = _kernels.smoothed_fn(F, case.form, float(case.c1), case.psi_over_phi * dh.PHI,
                                 b, f.f0)
        x = res.root
        terms = (F(-x), F(b - x)) if case.form == "sz" else (F(-b), F(0.0), F(x - b))
        scale = 1.0
        for term in terms:
            scale += abs(term)
        assert res.residual == abs(h(x)) / scale
        assert res.residual <= 1e-9
        if case.form == "cc" and h(x) != 0.0:   # the 'sz' terms give another figure
            assert res.residual != abs(h(x)) / (1.0 + abs(F(-x)) + abs(F(b - x)))


class TestSolvePoly:
    @pytest.mark.parametrize("case,b,lam,J,listed", [
        ("sz-lp-quadratic-medium", 0.1227, 1.316, 0.8704, 0.4665),
        ("cc-lp-nonprincipal", 0.1227, 1.097, 0.7788, 0.7391),
        ("cc-lp-principal", 0.0875, 1.155, 0.8815, 0.5330),
        ("cc-l2-chi1-principal", 0.0875, 0.9321, 0.7627, 1.017),
        ("cc-l2-chi2-principal-complex", 0.1227, 1.217, 0.8677, 0.4691),
    ])
    def test_bundled_rows(self, case, b, lam, J, listed):
        res = dh.solve_poly(case, b, lam, J)
        assert res.lambda_star == pytest.approx(listed, abs=2e-4 if listed < 1 else 5.1e-4)
        assert res.side_ok
        assert res.residual <= 1e-9

    def test_principal_extra_condition_evaluated(self):
        res = dh.solve_poly("cc-lp-principal", 0.0875, 1.155, 0.8815)
        margin = dh.get_case("cc-lp-principal")._sides.margin(0.0875, 1.155, 0.8815,
                                                              res.lambda_star)
        assert margin > 0

    def test_side_cap_is_valid_and_marked(self):
        # a bundled row whose printed parameters land the root a hair past the
        # side limit; the returned bound must sit exactly on the limit
        res = dh.solve_poly("sz-lp-quadratic-medium", 0.10, 1.265, 0.8793)
        assert res.side_limited
        assert res.lambda_star < res.root
        sides = dh.get_case("sz-lp-quadratic-medium")._sides
        assert sides.margin(0.10, 1.265, 0.8793, res.lambda_star * (1 - 1e-9)) > 0
        lim = sides.at(0.10, 1.265)[0](0.8793)
        assert res.lambda_star == pytest.approx(lim, abs=1e-12)

    def test_side_condition_hopeless_raises(self):
        # tiny J makes the condition fail already at width zero while the
        # equation still has a root
        sides = dh.get_case("sz-lp-quadratic-medium")._sides
        assert not sides.margin(0.012, 0.2, 0.05, 0.0) > 0
        with pytest.raises(SideConditionError):
            dh.solve_poly("sz-lp-quadratic-medium", 0.012, 0.2, 0.05)

    def test_no_root_raises(self):
        with pytest.raises(NoBoundError):
            dh.solve_poly("sz-lp-quadratic-medium", 0.0, 4.0, 4.9)

    def test_end_value_underflowing_to_minus_zero(self):
        # h(POLY_HI) underflows to -0.0, which passes the sign test; Newton
        # then inverted P(u) = 0 to u = 0 and lam / u raised ZeroDivisionError
        with pytest.raises(NoBoundError, match="stays negative") as err:
            dh.solve_poly("sz-lp-quadratic-medium", 5e-324, 1e-20, 1e-310, -0.0)
        assert err.value.sign == "negative"

    @pytest.mark.parametrize("bad, arg", [
        *((bad, arg) for bad in (math.nan, math.inf) for arg in ("b", "lam", "J", "phi")),
        (0.0, "J"), (-1.0, "lam"), (-1.0, "b"), ("sz-lp-principal", "case"),
        # finite, but (lam + b)^4 or (J + 1)^2 overflows, or lam^4 underflows
        # to 0, where Python's float ** raises
        (1e78, "b"), (1e78, "lam"), (1e-82, "lam"), (1e155, "J")])
    def test_non_finite_input_rejected(self, arg, bad):
        # every poly entry point checks its inputs alike (dh._check_poly),
        # before any arithmetic
        kwargs = {"case": "cc-lp-nonprincipal", "b": 0.1227, "lam": 1.097,
                  "J": 0.7788, "phi": dh.PHI, arg: bad}
        case, b, lam, J, phi = kwargs.values()
        calls = [lambda: dh.solve_poly(case, b, lam, J, phi=phi),
                 lambda: dh.poly_h(case, b, lam, J, phi=phi)]
        for call in calls:
            with pytest.raises(InvalidParameterError, match=arg):
                call()

    def test_j_minimum_for_cc_nonprincipal(self):
        with pytest.raises(InvalidParameterError):
            dh.solve_poly("cc-lp-nonprincipal", 0.2, 1.0, 0.2)

    @pytest.mark.parametrize("name", dh.POLY_CASES)
    def test_search_score_is_the_solvers_bound(self, name):
        # maximize_bound scores each candidate J by dh._poly_bound alone: over
        # a (lambda, J) grid its value is solve_poly's lambda* to the bit, and
        # NaN exactly where solve_poly raises
        case = dh.CASES[name]
        kinds = dict.fromkeys(("root", "side", "no root", "side fails"), 0)
        for b in (0.012, 0.2):
            for phi in (dh.PHI, 0.3):
                for lam in map(float, np.geomspace(0.05, 4.0, 15)):
                    at = dh._poly_at(case, b, lam, phi, case._sides.at(b, lam))
                    for J in map(float, np.geomspace(max(0.01, case.j_min), 4.0, 15)):
                        value = dh._poly_bound(at, lam, J)[0]
                        try:
                            res = dh.solve_poly(case, b, lam, J, phi=phi)
                        except (NoBoundError, SideConditionError) as exc:
                            assert math.isnan(value), (b, phi, lam, J)
                            kinds["no root" if isinstance(exc, NoBoundError)
                                  else "side fails"] += 1
                            continue
                        assert value == res.lambda_star, (b, phi, lam, J)
                        kinds["side" if res.side_limited else "root"] += 1
        assert min(kinds["root"], kinds["side"], kinds["no root"]) >= 50, kinds
        # with x on the linear slot the side condition always holds at x = 0
        assert (kinds["side fails"] > 0) == (case.unknown_slot == "known-on-square")

    def test_random_instances_match_scan(self):
        rng = np.random.default_rng(5)
        names = list(dh.POLY_CASES)
        checked = 0
        for _ in range(40):
            name = names[int(rng.integers(0, len(names)))]
            b = float(rng.uniform(0.05, 0.4))
            lam = float(rng.uniform(0.8, 2.8))
            J = float(rng.uniform(0.4, 1.2))
            try:
                res = dh.solve_poly(name, b, lam, J)
            except NoBoundError:
                continue
            h = dh.poly_h(name, b, lam, J)
            scanned = oracles.scan_root(h, 0.0, res.root + 1.0, 1e-6)
            assert abs(scanned - res.root) <= 2e-6
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20


class TestClosedForms:
    def test_very_small_reference_points(self):
        assert dh.very_small_dh(1.0, 4 * E) == pytest.approx(math.exp(-8 * E), rel=1e-12)
        assert dh.very_small_dh(0.5, 4 * E) == pytest.approx(math.exp(-4 * E), rel=1e-12)
        assert dh.very_small_dh(0.5, 2 * E, c1=1) == pytest.approx(math.exp(-2 * E), rel=1e-12)

    @given(lam1=st.floats(1e-12, 1e-2), psi=st.sampled_from([0.5, 1.0]),
           c1=st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_inverse_consistency_log_space(self, lam1, psi, c1):
        lp = dh.very_small_inverse(psi, lam1)
        fwd = dh.very_small_dh(psi, lp, c1=c1)
        expect = lam1 * lp / (2 * c1 * E)
        assert abs(math.log(fwd) - math.log(expect)) <= 1e-12

    @pytest.mark.parametrize("theta,psi,val,tol", [
        (0.9873, 1.0, 0.6069, 1e-3),
        (0.9873, 0.5, 1.2138, 2e-3),
        (1.2729, 1.0, 0.1722, 1e-3),
        (1.2729, 0.5, 0.3444, 2e-3),
    ])
    def test_cos_bound(self, theta, psi, val, tol):
        assert dh.cos_bound(theta, psi) == pytest.approx(val, abs=tol)

    def test_cos_bound_domain(self):
        with pytest.raises(InvalidParameterError):
            dh.cos_bound(2.0, 1.0)

    @pytest.mark.parametrize("psi,match", [
        (math.nan, "psi must be finite"), (math.inf, "psi must be finite"),
        (0.0, "psi must be finite and > 0"), (-1.0, "psi must be finite and > 0")])
    def test_closed_forms_need_a_finite_positive_psi(self, psi, match):
        # psi = 0 divided by zero, psi < 0 gave a negative distance, NaN gave NaN
        for call in (lambda: dh.very_small_dh(psi, 20.0), lambda: dh.very_small_inverse(psi, 0.5),
                     lambda: dh.cos_bound(0.9873, psi)):
            with pytest.raises(InvalidParameterError, match=match):
                call()

    @pytest.mark.parametrize("lambda_prime", [math.nan, math.inf])
    def test_very_small_dh_needs_a_finite_distance(self, lambda_prime):
        with pytest.raises(InvalidParameterError, match="lambda' must be finite"):
            dh.very_small_dh(1.0, lambda_prime)


class TestPiecewiseLogConstant:
    def test_single_interval(self):
        c = dh.piecewise_log_constant([(0.1227, 0.4665)], 0.12)
        assert c == pytest.approx(0.2200, abs=1e-3)

    def test_normalized_single_row(self):
        b_min = 0.05
        c = dh.piecewise_log_constant([(0.1, math.log(1 / b_min))], b_min)
        assert c == pytest.approx(1.0, abs=1e-14)

    def test_minimum_over_subintervals(self):
        rows = [(0.1, 2.0), (0.2, 1.0)]
        c = dh.piecewise_log_constant(rows, 0.05)
        assert c == pytest.approx(min(2.0 / math.log(20), 1.0 / math.log(10)), abs=1e-14)

    def test_domain_checks(self):
        from heckezeros.errors import DomainError
        with pytest.raises(DomainError):
            dh.piecewise_log_constant([(1.5, 1.0)], 0.1)
        with pytest.raises(InvalidParameterError):
            dh.piecewise_log_constant([(0.2, 1.0), (0.1, 2.0)], 0.05)
        # a NaN bound made the minimum depend on the order of the rows
        for rows in ([(0.01, math.nan), (0.05, 3.0)], [(0.01, 3.0), (0.05, math.nan)],
                     [(0.01, math.inf), (0.05, 3.0)], [(0.01, 3.0), (0.05, -1.0)],
                     [(0.01, 0.0)]):
            with pytest.raises(InvalidParameterError, match="lambda"):
                dh.piecewise_log_constant(rows, 0.005)
