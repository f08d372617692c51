"""Zero-free regions: coefficient machinery and the case solves."""

import math

import numpy as np
import pytest

from heckezeros import _kernels, oracles, p4, trial_functions as tf, zfr
from heckezeros.errors import InvalidParameterError, NoBoundError


class TestTrigExpansion:
    def test_bundled_quadruple(self):
        assert zfr.expand_trig_square_product(3, 10, 9, 10) == (
            14379, 24480, 14900, 6000, 1250)

    def test_principal_quadruple_is_ten_times_reduced(self):
        assert zfr.expand_trig_square_product(0, 10, 7, 10) == (
            6200, 10500, 7450, 3500, 1250)

    def test_constant_product(self):
        assert zfr.expand_trig_square_product(1, 0, 1, 0) == (1, 0, 0, 0, 0)

    @pytest.mark.parametrize("quad, message", [
        ((math.nan, 10, 9, 10), "a1 must be finite, got nan"),
        ((3, 10, math.inf, 10), "a2 must be finite, got inf"),
        ((3, 10, 9, True), "b2 must be finite, got True"),
        ((1e300, 1e300, 1, 1), "cosine coefficients past the float range: (inf, ")])
    def test_a_quadruple_that_is_not_finite_is_refused(self, quad, message):
        # (nan, 10, 9, 10) gave (nan, nan, nan, nan, 0.125 b2^2) and
        # (1e300, 1e300, 1, 1) all inf
        with pytest.raises(InvalidParameterError) as err:
            zfr.expand_trig_square_product(*quad)
        assert str(err.value).startswith(message)

    def test_pointwise_identity(self):
        rng = np.random.default_rng(2)
        th = np.linspace(0, 2 * math.pi, 1000)
        for _ in range(20):
            a1, b1, a2, b2 = rng.uniform(-3, 3, 4)
            cs = zfr.expand_trig_square_product(a1, b1, a2, b2)
            series = sum(c * np.cos(k * th) for k, c in enumerate(cs))
            direct = (a1 + b1 * np.cos(th)) ** 2 * (a2 + b2 * np.cos(th)) ** 2
            assert np.abs(series - direct).max() <= 1e-10 * (1 + np.abs(direct).max())


class TestCombine:
    def test_bundled_constants(self):
        assert zfr.combine_L_coefficients(14379, 46630, 0.75) == 62174
        assert zfr.combine_L_coefficients(30529, 30480, 0.75) == 61009

    def test_small_branch(self):
        assert zfr.combine_L_coefficients(1, 1, 0.75) == 2

    def test_all_order_sub_cases_bounded_by_bundled_B(self):
        # a character of order k is principal at the powers j = 0 mod k: each
        # sub-case's pair (a_k, b_k) combines to at most B, and the largest
        # combination is B
        c, B = zfr.CASES["order234"].coeffs, zfr.CASES["order234"].B
        pairs = {k: (sum(c[j] for j in range(5) if j % k == 0),
                     sum(c[j] for j in range(5) if j % k)) for k in (2, 3, 4)}
        assert pairs == {4: (15629, 45380), 3: (20379, 40630), 2: (30529, 30480)}
        combos = [zfr.combine_L_coefficients(a, b, 0.75) for a, b in pairs.values()]
        assert all(v <= B for v in combos)
        assert max(combos) == B == 61009

    def test_smoothed_B_is_the_order_5_rule(self):
        # at k = 5 only c0's power is principal
        c = zfr.CASES["order234"].coeffs
        assert zfr.SMOOTHED_B == zfr.combine_L_coefficients(c[0], sum(c[1:]), 0.75) == 62174

    def test_non_integer_inputs_not_ceiled(self):
        v = zfr.combine_L_coefficients(1.0, 3.5, 0.75)
        assert v == pytest.approx(4.0 + 0.5 / 0.75, abs=1e-14)


class TestDerivedCases:
    """Every constant of a case comes from its polynomial (``zfr.POLYNOMIALS``)
    and is the bundled one, to the bit."""

    #: the bundled constants the derivation reproduces: coefficients, B and
    #: side (p, q)
    BUNDLED = {
        "order234": ((14379, 24480, 14900, 6000, 1250), 61009, (14900, 30480)),
        "principal": ((620, 1050, 745, 350, 125), 2890, (1050, 1365)),
    }

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_derived_record_is_the_bundled_one(self, name):
        case = zfr.CASES[name]
        coeffs, B, side = self.BUNDLED[name]
        assert [v.hex() for v in (*case.coeffs, case.B, *case.side)] == [
            float(v).hex() for v in (*coeffs, B, *side)]

    def test_order5_ratio_is_order234s(self):
        # trial_functions cannot read zfr, so its k = c1/c0 is a literal
        c = zfr.CASES["order234"].coeffs
        assert tf.K_FAMILY_PAIRS[2][0].hex() == (c[1] / c[0]).hex()


class TestSolve:
    def test_order234_reference(self):
        res = zfr.zfr_solve("order234", 0.9421)
        assert 0.1225 <= res.lambda1 <= 0.1230
        assert res.side_ok and not res.side_limited
        assert res.residual <= 1e-10

    def test_principal_reference_is_side_limited(self):
        res = zfr.zfr_solve("principal", 1.291)
        assert 0.0873 <= res.lambda1 <= 0.0878
        assert res.side_ok
        assert res.side_limited          # 1365/1050 = 1.3 is nearly tight
        assert res.lambda1 < res.root
        # the returned width sits exactly on the condition boundary
        p, q = zfr.CASES["principal"].side
        assert ((1.291 + res.lambda1) / 1.291) ** 4 == pytest.approx(q / p, rel=1e-12)

    def test_width_term_free_anchor(self):
        # phi = 0 removes the width term: 14379 P(1) = 24480 P(u) exactly
        res = zfr.zfr_solve("order234", 0.9421, phi=0.0)
        u = 0.9421 / (0.9421 + res.root)
        assert 24480 * float(np.real(p4.p4_eval(u))) == pytest.approx(
            14379 * 3.2, rel=1e-12)

    def test_root_matches_scan_oracle(self):
        h = zfr.zfr_h("order234", 0.9421)
        scanned = oracles.scan_root(h, 0.0, 5.0, 1e-6)
        assert abs(scanned - zfr.zfr_solve("order234", 0.9421).root) <= 2e-6

    def test_no_bound_when_inequality_positive(self):
        with pytest.raises(NoBoundError):
            zfr.zfr_solve("principal", 40.0)

    def test_bad_lambda(self):
        with pytest.raises(InvalidParameterError):
            zfr.zfr_solve("order234", 0.0)

    def test_no_root_below_the_bracket_top(self):
        # phi = 0 drops the width term; at lambda = 50 the root lies past 10
        with pytest.raises(NoBoundError, match=r"h stays negative on \[0, 10\.0\]") as err:
            zfr.zfr_solve("order234", 50.0, phi=0.0)
        assert err.value.sign == "negative"

    @pytest.mark.parametrize("lam, phi, named", [
        (-1.0, 0.25, "lam"), (0.0, 0.25, "lam"), (math.nan, 0.25, "lam"),
        (0.9421, -1.0, "phi"), (0.9421, math.nan, "phi")])
    def test_h_checks_as_the_solver(self, lam, phi, named):
        # zfr_h("order234", -1.0)(0.5) was -429463.45
        for call in (zfr.zfr_h, zfr.zfr_solve):
            with pytest.raises(InvalidParameterError, match=named):
                call("order234", lam, phi)

    def test_case_by_name_or_record(self):
        record = zfr.CASES["principal"]
        assert zfr.get_case(record) is record is zfr.get_case("principal")
        assert zfr.zfr_solve(record, 1.291) == zfr.zfr_solve("principal", 1.291)

    def test_side_limit_when_q_is_below_p(self):
        # p/lam^4 <= q/(lam + x)^4 holds for no x >= 0
        case = zfr.ZfrCase("x", (3, 1, 0, 0, 0), 1, (2, 1), "")
        assert zfr.side_condition_limit(case, 0.5) == -math.inf

    @pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf])
    def test_side_limit_checks_lambda(self, lam):
        # lambda = -1 gave a negative width -0.19593, NaN gave NaN, inf gave
        # inf and 0 gave 0.0
        with pytest.raises(InvalidParameterError, match="lam"):
            zfr.side_condition_limit("order234", lam)

    @pytest.mark.parametrize("arg", ["lam", "phi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, arg, bad):
        kwargs = {"lam": 0.9421, "phi": 0.25, arg: bad}
        with pytest.raises(InvalidParameterError, match=arg):
            zfr.zfr_solve("order234", **kwargs)


class TestNegativePhi:
    """A negative phi flips the sign of the width term and inflates the bound:
    at phi = -1/4, order234 at lambda 0.9421 gave 0.1846 (0.1227 at 1/4),
    its optimum 0.510, and order>=6 with triangle(2) the full floor 0.3916,
    where phi = 1/4 proves nothing.  phi = 0 stays allowed."""

    def test_solve(self):
        with pytest.raises(InvalidParameterError, match="phi must be finite and >= 0"):
            zfr.zfr_solve("order234", 0.9421, phi=-0.25)

    def test_optimize_checks_before_its_scan(self, monkeypatch):
        roots = []
        monkeypatch.setattr(_kernels, "zfr_root", lambda *args: roots.append(args))
        with pytest.raises(InvalidParameterError, match="phi must be finite and >= 0"):
            zfr.zfr_optimize("order234", phi=-0.25)
        assert roots == []

    def test_order_ge6(self):
        with pytest.raises(NoBoundError):
            zfr.zfr_order_ge6(tf.triangle(2.0))
        with pytest.raises(InvalidParameterError, match="phi must be finite and >= 0"):
            zfr.zfr_order_ge6(tf.triangle(2.0), phi=-0.25)

    def test_zero_phi_allowed(self):
        assert zfr.zfr_order_ge6(tf.triangle(2.0), phi=0.0).lambda1 > 0.0
        lam, width = zfr.zfr_optimize("order234", phi=0.0)
        assert width == zfr.zfr_solve("order234", lam, phi=0.0).lambda1 > 0.0


@pytest.mark.parametrize("case", ["order234", "principal"])
def test_scan_score_is_the_solvers_width(case):
    # zfr_optimize returns zfr._zfr_bound's width at its lambda: over the
    # lambda box [0.05, 3] that value is zfr_solve's width to the bit, and NaN
    # exactly where zfr_solve raises NoBoundError
    kinds = {"root": 0, "side": 0, "fails": 0}
    for phi in (0.0, 0.25, 0.3):
        for lam in np.linspace(0.05, 3.0, 119):
            value = zfr._zfr_bound(zfr.CASES[case], float(lam), phi)[0]
            try:
                res = zfr.zfr_solve(case, lam, phi)
            except NoBoundError:
                assert math.isnan(value), (phi, lam)
                kinds["fails"] += 1
                continue
            assert value == res.lambda1, (phi, lam)
            kinds["side" if res.side_limited else "root"] += 1
    assert min(kinds.values()) >= 10, kinds


class TestOrder5:
    def test_reference_value(self):
        assert zfr.zfr_order5() == pytest.approx(0.1489, abs=5e-4)

    @pytest.mark.parametrize("phi,match", [
        (math.nan, "phi must be finite"), (math.inf, "phi must be finite"),
        (0.0, "phi must be finite and > 0"), (-0.25, "phi must be finite and > 0")])
    def test_phi_must_be_finite_and_positive(self, phi, match):
        # NaN gave lambda_1 >= nan and inf gave lambda_1 >= 0
        with pytest.raises(InvalidParameterError, match=match):
            zfr.zfr_order5(phi=phi)

    def test_scales_inversely_with_phi(self):
        assert zfr.zfr_order5(phi=0.125) == pytest.approx(2 * zfr.zfr_order5(), rel=1e-12)

    def test_angle_sensitivity(self):
        # the bundled angle carries ~5e-5 print precision; the bound moves little
        theta = tf.K_FAMILY_PAIRS[2][1]
        base = zfr.zfr_order5()
        for dt in (-5e-5, 5e-5):
            pert = math.cos(theta + dt) ** 2 * 14379.0 / (62174.0 * 0.25)
            assert abs(pert - base) < 1e-4


class TestOrderGe6:
    def test_substitute_weight_flagged_approximate(self):
        f = tf.triangle(4.0)
        res = zfr.zfr_order_ge6(f)
        assert res.approximate
        assert 0.0 < res.lambda1 <= zfr.ORDER_GE6_LAMBDA_STAR
        # the bundled floor 0.3916 comes from the complex-case tables at width .18
        assert zfr.ORDER_GE6_LAMBDA_STAR == 0.3916

    def test_useless_weight_raises(self):
        with pytest.raises(NoBoundError):
            zfr.zfr_order_ge6(tf.triangle(0.05))

    def test_floor_when_inequality_negative_on_whole_bracket(self):
        res = zfr.zfr_order_ge6(tf.triangle(4.0), lam_star=0.1)
        assert res.lambda1 == 0.1 and res.root == 0.1

    def test_nan_transform_raises(self):
        f = tf.triangle(4.0)
        broken = tf.TrialFunction("plugin", {}, f.x0, f.f0, f,
                                  lambda z: np.full(np.shape(z), np.nan))
        with pytest.raises(NoBoundError):
            zfr.zfr_order_ge6(broken)

    @pytest.mark.parametrize("lam_star", [0.0, -0.5])
    def test_non_positive_lam_star_rejected(self, lam_star):
        # 0 gave a width-0 result and -0.5 a misleading NoBoundError
        with pytest.raises(InvalidParameterError, match=r"lambda\* must be finite and > 0"):
            zfr.zfr_order_ge6(tf.triangle(4.0), lam_star=lam_star)

    @pytest.mark.parametrize("arg", ["lam_star", "phi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, arg, bad):
        kwargs = {"lam_star": zfr.ORDER_GE6_LAMBDA_STAR, "phi": 0.25, arg: bad}
        with pytest.raises(InvalidParameterError, match={"lam_star": r"lambda\*"}.get(arg, arg)):
            zfr.zfr_order_ge6(tf.triangle(4.0), **kwargs)


class TestOptimize:
    def test_order234(self):
        lam_opt, l1 = zfr.zfr_optimize("order234")
        assert abs(lam_opt - 0.9421) <= 0.01
        assert l1 >= zfr.zfr_solve("order234", 0.9421).lambda1 - 1e-4

    def test_principal_on_boundary(self):
        lam_opt, l1 = zfr.zfr_optimize("principal")
        assert abs(lam_opt - 1.291) <= 0.01
        fixed = zfr.zfr_solve("principal", 1.291).lambda1
        assert l1 >= fixed - 1e-9
        assert zfr.zfr_solve("principal", lam_opt).side_limited

    @pytest.mark.parametrize("case", ["order234", "principal"])
    def test_profile_unimodal_on_scan(self, case):
        # the root x of P(u) = (P(1) c0 + B phi lambda)/c1, u = lambda/(lambda
        # + x), rises, then falls, peaking where c1 (0.4 u^3 + 1.2 u^4 +
        # 1.6 u^5) = P(1) c0; the side limit rises; so the width, the smaller
        # of the two, rises, then falls
        lams = np.linspace(0.5, 1.6, 200)
        widths, roots = [], []
        for lam in lams:
            try:
                res = zfr.zfr_solve(case, float(lam))
            except NoBoundError:
                widths.append(-1.0)
                roots.append(-1.0)
            else:
                widths.append(res.lambda1)
                roots.append(res.root)
        for vals in (np.array(widths), np.array(roots)):
            k = int(np.argmax(vals))
            assert 0 < k < len(vals) - 1
            assert np.all(np.diff(vals[: k + 1]) >= -1e-12)
            assert np.all(np.diff(vals[k:]) <= 1e-12)
        c = zfr.CASES[case]
        (u,) = [r.real for r in np.roots([1.6, 1.2, 0.4, 0.0, 0.0,
                                          -_kernels.P1 * c.coeffs[0] / c.coeffs[1]])
                if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
        peak = (c.coeffs[1] * _kernels._p4(u) - _kernels.P1 * c.coeffs[0]) / (c.B * zfr.PHI)
        assert abs(lams[int(np.argmax(roots))] - peak) <= lams[1] - lams[0]
        if case == "order234":   # the root binds: the optimum is its peak
            assert u == pytest.approx(0.8847, abs=1e-4)
            assert zfr.zfr_optimize(case)[0] == pytest.approx(peak, abs=1e-12)

    def test_no_feasible_lambda(self):
        # c0 = 3 c1 keeps c0 P(1) - c1 P(u) + B phi lambda > 0 at every u <= 1
        case = zfr.ZfrCase("x", (3, 1, 0, 0, 0), 1, (1, 2), "")
        with pytest.raises(NoBoundError, match="no feasible lambda"):
            zfr.zfr_optimize(case)

    @pytest.mark.parametrize("phi", [0.0, 0.25])
    def test_no_width_where_q_is_below_p(self, phi):
        # p/lam^4 <= q/(lam + x)^4 holds for no x >= 0: the search returned
        # (0.05, 0.0) at both phi, a width the side condition does not allow
        case = zfr.ZfrCase("x", (14379, 24480, 0, 0, 0), 61009, (30480, 14900), "")
        with pytest.raises(NoBoundError, match="no feasible lambda"):
            zfr.zfr_optimize(case, phi)


def _random_cases(n, seed):
    """n (ZfrCase, phi) with c1/c0 and q/p in [1.05, 2.5], phi in [0.05, 2]."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        c0 = rng.uniform(100.0, 20000.0)
        B = rng.uniform(1000.0, 80000.0)
        p = rng.uniform(100.0, 20000.0)
        c1, q = c0 * rng.uniform(1.05, 2.5), p * rng.uniform(1.05, 2.5)
        yield (zfr.ZfrCase(f"random-{i}", (c0, c1, 0, 0, 0), B, (p, q), ""),
               float(rng.uniform(0.05, 2.0)))


#: the known-optimum cases: both bundled cases at five phi, and seeded random
#: records, one of which has no root anywhere in the lambda box
KNOWN_OPTIMUM = ([(zfr.CASES[name], phi) for name in ("order234", "principal")
                  for phi in (0.0, 0.1, 0.25, 0.3, 1.0)] + list(_random_cases(50, 41)))


@pytest.mark.parametrize("case, phi", KNOWN_OPTIMUM,
                         ids=[f"{c.name}-{phi:.4g}" for c, phi in KNOWN_OPTIMUM])
def test_closed_form_is_the_optimum(monkeypatch, case, phi):
    """No lambda of a 2001-point grid of the box beats the closed form, whose
    width ``zfr_solve`` returns; it takes one bisection and at most 8 steps
    down from the kink."""
    bound = zfr._zfr_bound
    grid = [bound(case, float(lam), phi)[0] for lam in np.linspace(0.05, 3.0, 2001)]
    calls = {"bisect": 0, "bound": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped
    monkeypatch.setattr(_kernels, "_bisect", counted("bisect", _kernels._bisect))
    monkeypatch.setattr(zfr, "_zfr_bound", counted("bound", bound))
    try:
        lam, width = zfr.zfr_optimize(case, phi)
    except NoBoundError:
        lam = width = None
    assert calls["bisect"] == 1 and 1 <= calls["bound"] <= 9, calls
    if width is None:
        assert np.isnan(grid).all()
        return
    monkeypatch.undo()
    assert 0.05 <= lam <= 3.0 and width > 0.0
    assert np.nanmax(grid) <= width * (1.0 + 1e-13)
    res = zfr.zfr_solve(case, lam, phi)
    assert res.lambda1 == width
    if case.name == "principal" and phi > 0.1:   # the side limit binds below lambda = 3
        assert res.side_limited


def test_root_at_phi_03_matches_mpmath():
    """phi != 1/4: the order234 root against a 60-digit root of the same
    quartic, P's coefficients 4/5 and 2/5 as exact rationals."""
    mp = pytest.importorskip("mpmath")
    res = zfr.zfr_solve("order234", 0.9421, phi=0.3)
    assert res.root == pytest.approx(0.0991535619128535, rel=1e-14)
    case = zfr.CASES["order234"]
    with mp.workdps(60):
        c0, c1, B = (mp.mpf(float(v)) for v in (case.coeffs[0], case.coeffs[1], case.B))
        lam, phi = mp.mpf(0.9421), mp.mpf(0.3)

        def P(u):
            return u + u ** 2 + mp.mpf(4) / 5 * u ** 3 + mp.mpf(2) / 5 * u ** 4

        u = mp.findroot(lambda u: c0 * P(1) - c1 * P(u) + B * phi * lam,
                        lam / (lam + mp.mpf(res.root)))
        want = lam / u - lam
    # the float root is a few ulp off the exact one (2.2e-15 relative here)
    assert abs(res.root - want) <= 1e-14 * want
