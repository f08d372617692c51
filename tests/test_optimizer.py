"""Parameter search: determinism, feasibility handling, table-row floors."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heckezeros import _kernels, dh, optimizer, p4, tables, trial_functions, zero_density
from heckezeros.errors import (BoundUnavailableError, HeckeZerosError,
                               InfeasibleSearchError, InvalidParameterError)
from heckezeros.optimizer import SearchSpec, maximize_bound


class TestDeterminism:
    def test_identical_specs_identical_results(self):
        a = maximize_bound(SearchSpec("cc-lp-nonprincipal", 0.1227))
        b = maximize_bound(SearchSpec("cc-lp-nonprincipal", 0.1227))
        assert a == b

    def test_smoothed_identical(self):
        a = optimizer.optimize_family_smoothed("sz-lp-principal", 0.0875, budget=150)
        b = optimizer.optimize_family_smoothed("sz-lp-principal", 0.0875, budget=150)
        assert a == b


class TestPolySearch:
    def test_reference_row_nonprincipal(self):
        res = maximize_bound(SearchSpec("cc-lp-nonprincipal", 0.1227))
        assert res.lambda_star >= 0.7391 - 2e-4
        assert abs(res.params["lambda"] - 1.097) <= 0.02 * 1.097 + 0.01
        assert abs(res.params["J"] - 0.7788) <= 0.02 * 0.7788 + 0.01

    def test_reference_row_quadratic_medium(self):
        res = maximize_bound(SearchSpec("sz-lp-quadratic-medium", 0.1227))
        assert res.lambda_star >= 0.4665 - 2e-4

    def test_side_condition_respected(self):
        res = maximize_bound(SearchSpec("cc-lp-principal", 0.0875))
        assert res.side_ok
        margin = dh.get_case("cc-lp-principal")._sides.margin(
            0.0875, res.params["lambda"], res.params["J"], res.lambda_star * (1 - 1e-12))
        assert margin > 0

    def test_degenerate_width_terminates(self):
        # bounds collapse toward zero near width 0.9; either a tiny bound or a
        # clean infeasibility report is acceptable
        try:
            res = maximize_bound(SearchSpec("sz-lp-quadratic-medium", 0.9))
            assert res.lambda_star < 0.1
        except InfeasibleSearchError:
            pass

    @pytest.mark.slow
    @pytest.mark.parametrize("key", ["T3:quadratic", "T3:principal", "T4", "T5",
                                     "T9", "T10"])
    def test_every_bundled_row_is_a_floor(self, key):
        """The listed per-row choices never beat the search (print ulp slack)."""
        t = tables.load_table(key)
        for r in t.rows:
            res = maximize_bound(SearchSpec(t.case_name, r.b))
            gate = 2e-4 if r.lambda_star < 1.0 else 5.1e-4
            assert res.lambda_star >= r.lambda_star - gate, (key, r.b)


POLY_TABLES = ("T3:quadratic", "T3:principal", "T4", "T5", "T9", "T10")


def _dense_inner(case, b, lam, phi, n=20001):
    """min(root, side limit) on n points of the J box, -inf where either fails.

    Written from the inequalities, vectorized over J, independently of the
    solver: the root of P(u) = target by bisection in u on
    [lam/(lam+1000), 1], and each side condition's largest x.
    """
    J = np.linspace(max(optimizer.POLY_BOXES["J"][0], case.j_min),
                    optimizer.POLY_BOXES["J"][1], n)
    psi, pb = case.psi_over_phi * phi, p4.p4_eval(lam / (lam + b))
    on_square = case.unknown_slot == "known-on-square"
    if on_square:
        target = ((J * J + 0.5) * (3.2 - pb) + psi * lam * (J + 1) ** 2) / (2 * J)
    else:
        target = 3.2 - (2 * J * pb - psi * lam * (J + 1) ** 2) / (J * J + 0.5)
    u_min = lam / (lam + 1000.0)
    lo, hi = np.full(n, u_min), np.ones(n)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = p4.p4_eval(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    root = np.where((p4.p4_eval(u_min) <= target) & (target <= 3.2),
                    lam / (0.5 * (lo + hi)) - lam, -np.inf)
    limit = _reference_limit(case, b, lam, J)
    return float(np.minimum(root, np.where(limit >= 0, limit, -np.inf)).max())


def _reference_conditions(case, J):
    """Each side condition at J as (coefficient of the 2J slot's term, of the
    square slot's), written from the paper: (j0, 1) and, for extra_j1,
    (j1, 2), with j0 = min(J/2 + 1/(2J), 4J) ('sz') or min(J + 3/(4J), 4J)
    ('cc') and j1 = 4J/(J^2 + 1)."""
    j0 = (np.minimum(J / 2 + 1 / (2 * J), 4 * J) if case.j0 == "sz"
          else np.minimum(J + 3 / (4 * J), 4 * J))
    conditions = [(j0, 1.0)]
    if case.extra_j1:
        conditions.append((4 * J / (J * J + 1), 2.0))
    return conditions


def _reference_limit(case, b, lam, J):
    """Each condition's largest x and their minimum, inf where no condition
    binds and negative where even x = 0 fails, vectorized over J: the side
    limit (``case._sides.at``) written independently."""
    on_square = case.unknown_slot == "known-on-square"
    limit = np.full(np.shape(J), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for coef_ln, coef_sq in _reference_conditions(case, J):
            # x sits on the linear slot when the known value is on the square one
            rest = 1.0 / lam ** 4 - (coef_sq if on_square else coef_ln) / (lam + b) ** 4
            coef_x = coef_ln if on_square else coef_sq
            limit = np.minimum(limit, np.where(rest > 0, (coef_x / rest) ** 0.25 - lam,
                                               np.inf))
    return limit


class TestSideConditionReference:
    """The side conditions' margin and limit (``case._sides``) against the
    conditions written out here, over a (b, lambda, J, x) grid of every poly
    case."""

    @pytest.mark.parametrize("name", dh.POLY_CASES)
    def test_margin_and_limit_match_the_reference(self, name):
        case = dh.get_case(name)
        on_square = case.unknown_slot == "known-on-square"
        seen = set()
        for b, lam, J in itertools.product((0.0, 0.012, 0.1227, 0.5, 2.0),
                                           (0.05, 0.3, 1.0, 1.155, 3.0),
                                           (0.05, 0.25, 0.5, 0.8815, 1.0, 2.0, 4.0)):
            if J < case.j_min:
                continue
            conditions = [(float(c_ln), c_sq) for c_ln, c_sq in
                          _reference_conditions(case, np.array(J))]
            for c_ln, c_sq in conditions:   # the rest the x term must exceed
                if 1.0 / lam ** 4 - (c_sq if on_square else c_ln) / (lam + b) ** 4 <= 0.0:
                    seen.add("a rest <= 0")
            for x in (0.0, 0.01, 0.3, 1.0, 5.0):
                sq, ln = (b, x) if on_square else (x, b)
                terms = [(c_ln / (lam + ln) ** 4, c_sq / (lam + sq) ** 4)
                         for c_ln, c_sq in conditions]
                margins = [t_ln + t_sq - 1.0 / lam ** 4 for t_ln, t_sq in terms]
                margin = case._sides.margin(b, lam, J, x)
                tol = 1e-14 * (1.0 / lam ** 4 + max(map(sum, terms)))
                assert margin == pytest.approx(min(margins), abs=tol), (b, lam, J, x)
                if abs(min(margins)) > tol:
                    assert (margin > 0.0) == (min(margins) > 0.0), (b, lam, J, x)
                if x == 0.0 and min(margins) < -tol:
                    seen.add("fails at 0")
                if len(margins) == 2 and margins[1] < margins[0] - tol:
                    seen.add("second binds")
            want = float(_reference_limit(case, b, lam, np.array(J)))
            got = case._sides.at(b, lam)[0](J)
            assert got == want or got == pytest.approx(want, rel=1e-12), (b, lam, J)
        # with x on the square slot its term is 1/lam^4 at x = 0, so the
        # condition holds there
        assert "a rest <= 0" in seen and ("fails at 0" in seen) == on_square
        assert ("second binds" in seen) == case.extra_j1


class TestInnerJ:
    """At fixed lambda the candidate set holds the exact J-maximum."""

    @pytest.mark.parametrize("phi", [dh.PHI, 0.3])
    @pytest.mark.parametrize("key", POLY_TABLES)
    def test_candidates_reach_the_dense_grid_maximum(self, key, phi):
        t = tables.load_table(key)
        case = dh.get_case(t.case_name)
        b = t.rows[len(t.rows) // 2].b
        for lam in (0.3, 0.7, 1.0, 1.5, 2.0):
            got = -math.inf
            at = dh._poly_at(case, b, lam, phi, case._sides.at(b, lam))
            for _, J in optimizer._j_candidates(case, lam, at):
                try:
                    got = max(got, dh.solve_poly(case, b, lam, J, phi=phi).lambda_star)
                except HeckeZerosError:
                    pass
            want = _dense_inner(case, b, lam, phi)
            assert math.isfinite(want)
            assert got >= want - 1e-12 * abs(want), (key, lam)

    @pytest.mark.parametrize("key", POLY_TABLES)
    def test_each_lambda_is_built_once(self, monkeypatch, key):
        # the section reads a lambda's ceiling and peak without building it,
        # once per lambda; a scored lambda whose peak is slack
        # (optimizer._slack_peak) is valued by it, with no build, a
        # side-limited one that no J can score its rival with is settled
        # (optimizer._j_settles), with no build, and only the other
        # side-limited lambda scored are built (dh._poly_at), each once, for
        # _j_candidates.  Each scored lambda forms its side limit
        # (_SideConditions.at) once, for the slack test and the build (it was
        # formed twice at each side-limited lambda).  The winner's solve_poly
        # makes one build more, and forms its side limit once more
        t = tables.load_table(key)
        builds = TestBudget.counted(monkeypatch, dh, "_poly_at")
        sides = TestBudget.counted(monkeypatch, dh._SideConditions, "at")
        read = {"_j_ceiling": [], "_slack_peak": [], "_j_settles": [], "_j_candidates": []}
        for name in read:   # where lambda is, or the peak of _j_ceiling's
            def spy(*args, _fn=getattr(optimizer, name), _read=read[name],
                    _at={"_j_ceiling": 2, "_slack_peak": 0, "_j_settles": 2,
                         "_j_candidates": 1}[name]):
                got = _fn(*args)
                _read.append((args[_at], got))
                return got
            monkeypatch.setattr(optimizer, name, spy)
        maximize_bound(SearchSpec(t.case_name, t.rows[len(t.rows) // 2].b))
        ceilings = [lam for lam, _ in read["_j_ceiling"]]
        assert len(ceilings) == len(set(ceilings)) >= 25   # the coarse scan's
        lam_of = {id(peak): lam for lam, peak in read["_j_ceiling"]}
        scored = [lam_of[id(peak)] for peak, _ in read["_slack_peak"]]
        limited = [lam_of[id(peak)] for peak, slack in read["_slack_peak"] if slack is None]
        settled = {lam for lam, settles in read["_j_settles"] if settles}
        assert {lam for lam, _ in read["_j_settles"]} <= set(limited)
        built = [lam for lam in limited if lam not in settled]
        assert len(scored) == len(set(scored)) < len(ceilings)
        assert [lam for lam, _ in read["_j_candidates"]] == built
        assert len(builds) == len(built) + 1
        assert len(sides) == len(scored) + 1
        # the T4, T5, T9 and T10 rows are never side-limited, the T3 rows are,
        # and settle some of their side-limited lambda
        t3 = key in ("T3:quadratic", "T3:principal")
        assert (len(builds) == 1) == (not t3) == (not settled)

    @pytest.mark.parametrize("key", POLY_TABLES)
    def test_crossings_take_the_gaps_at_their_ends(self, monkeypatch, key):
        # a crossing is bisected from the gap values _j_candidates has at
        # its piece's ends: each evaluation of gap per crossing is an ITP
        # step inside the piece, none is at an end.  The search runs with a
        # ceiling of +inf and no peak, which prunes no lambda and scores each
        # over its candidates: with the ceiling, T4's middle row scores no
        # lambda over its candidates
        t = tables.load_table(key)
        ceilings = _no_ceiling(monkeypatch)
        crossings, bisect = [], _kernels._bisect

        def counted(h, lo, hi, *ends):
            xs = []
            got = bisect(lambda x: xs.append(x) or h(x), lo, hi, *ends)
            crossings.append((lo, hi, ends, (h(lo), h(hi)), xs))
            return got

        monkeypatch.setattr(_kernels, "_bisect", counted)
        maximize_bound(SearchSpec(t.case_name, t.rows[len(t.rows) // 2].b))
        assert ceilings and crossings
        for lo, hi, ends, at_ends, xs in crossings:
            assert ends == at_ends and ends[0] < 0.0 < ends[1]
            assert xs and all(lo < x < hi for x in xs), (key, lo, hi)

    @pytest.mark.parametrize("phi", [dh.PHI, 0.3])
    @pytest.mark.parametrize("key", POLY_TABLES)
    def test_root_and_side_limit_are_monotone_between_turns(self, key, phi):
        # _j_candidates takes the root and the side limit as monotone in J
        # between the box ends, the root's stationary points and the side
        # limit's turns (dh._SideConditions.turns); a missing turn would show
        # as a change of direction inside a piece.  The side limit does not
        # read phi, the root's stationary points do
        t = tables.load_table(key)
        case = dh.get_case(t.case_name)
        j_lo, j_hi = optimizer._j_box(case)

        def monotone(values):   # arctan maps an infinite side limit to pi/2
            d = np.diff(np.arctan(values[~np.isnan(values)]))
            return bool(np.all(d >= -1e-12) or np.all(d <= 1e-12))

        pieces = 0
        for b in (t.rows[0].b, t.rows[len(t.rows) // 2].b, t.rows[-1].b):
            for lam in (0.3, 1.0, 2.0, 3.5):
                at = dh._poly_at(case, b, lam, phi, case._sides.at(b, lam))
                peaks, troughs = case._sides.turns(at[4])
                turns = [*at[2], *peaks, *troughs]
                edges = sorted({j_lo, j_hi} | {J for J in turns if j_lo < J < j_hi})
                for lo, hi in zip(edges, edges[1:]):
                    Js = np.linspace(lo, hi, 150)
                    side = np.array([at[3](J) for J in Js])
                    root = np.array([dh._poly_bound(at, lam, J)[1] for J in Js])
                    assert monotone(side), (b, lam, lo, hi)
                    assert monotone(root), (b, lam, lo, hi)
                    pieces += 1
        assert pieces >= 3 * 12


def _no_ceiling(monkeypatch):
    """Make the lambda section's ceiling +inf, with no peak J, which prunes
    nothing and scores every lambda over its candidates; returns the list of
    its calls, so a test can tell that the section read it."""
    calls = []
    monkeypatch.setattr(optimizer, "_j_ceiling",
                        lambda *args: calls.append(args) or (math.inf, math.nan, None))
    return calls


def _no_settle(monkeypatch):
    """Make the lambda section settle no lambda against its rival, which
    builds and scores every side-limited lambda it reaches; returns the list
    of its calls, so a test can tell that the section read it."""
    calls = []
    monkeypatch.setattr(optimizer, "_j_settles", lambda *args: calls.append(args) or False)
    return calls


def _settled(monkeypatch):
    """The lambda the section settles against their rivals, as a list that
    fills up."""
    out, settles = [], optimizer._j_settles
    monkeypatch.setattr(optimizer, "_j_settles",
                        lambda *args: settles(*args) and not out.append(args[2]))
    return out


def _full_inner(case, b, lam, phi):
    """(value, J): the J-maximum at lambda over every candidate, with no early
    stop or budget, and the first candidate J that reaches it (None if none
    does): what the lambda section's ceiling must not fall below, and what a
    slack peak must equal."""
    at = dh._poly_at(case, b, lam, phi, case._sides.at(b, lam))
    best = -math.inf, None
    for _, J in optimizer._j_candidates(case, lam, at):
        v = dh._poly_bound(at, lam, J)[0]
        if v > best[0]:   # False for NaN
            best = v, J
    return best


def _regimes(case, b, lam, phi):
    """(some J has h(0) > 0, some J has its root past 1000) over the turns."""
    at = dh._poly_at(case, b, lam, phi, case._sides.at(b, lam))
    j_lo, j_hi = optimizer._j_box(case)
    turns = [at[2], case._sides.turns(at[4])[0]]   # stationary J, peaks
    Js = [j_lo, j_hi, *(J for group in turns for J in group if j_lo < J < j_hi)]
    h = [dh._poly_bound(at, lam, J)[2:4] for J in Js]
    return any(h0 > 0.0 for h0, _ in h), any(h1000 < 0.0 for _, h1000 in h)


#: (lambda, b, phi) that reach the ceiling's edges: h(0) > 0 at some J while
#: others bound, roots past the bracket, and no root at all
CEILING_EXAMPLES = tuple({"lam": lam, "b": b, "phi": phi} for lam, b, phi in (
    (0.1, 0.0, 0.25), (0.1, 0.3, 0.8), (0.1, 0.0, 0.0), (1.0, 1e-4, 0.0),
    (5.0, 0.1227, 1.0)))


#: the widths, phi and lambda of TestCeiling's grid: every coarse lambda of
#: the section and more
GRID_B = (0.0, 1e-4, 0.05, 0.3, 1.0, 3.0)
GRID_PHI = (0.0, 0.25, 0.6)
GRID_LAMS = (*map(float, np.linspace(*optimizer.POLY_BOXES["lambda"], 25)),
             0.05, 0.1227, 1.155, 3.7)


class TestCeiling:
    """The lambda section spares the lambda whose ceiling shows they cannot
    win; the ceiling is an upper bound, and the pruning changes no bit."""

    @staticmethod
    def outcome(case, b, phi):
        try:
            return repr(maximize_bound(SearchSpec(case, b, phi=phi)))
        except HeckeZerosError as e:
            return type(e)

    @pytest.mark.parametrize("key", POLY_TABLES)
    def test_pruning_changes_no_table_result(self, monkeypatch, key):
        # one row per width band; a ceiling of +inf prunes nothing
        t = tables.load_table(key)
        n = len(t.rows)
        specs = [(t.case_name, t.rows[(2 * k + 1) * n // 6].b, dh.PHI) for k in range(3)]
        pruned = [self.outcome(*spec) for spec in specs]
        ceilings = _no_ceiling(monkeypatch)
        assert [self.outcome(*spec) for spec in specs] == pruned
        assert ceilings

    @pytest.mark.parametrize("case", dh.POLY_CASES)
    def test_pruning_changes_no_grid_result(self, monkeypatch, case):
        specs = [(case, b, phi) for b in GRID_B for phi in GRID_PHI]
        pruned = [self.outcome(*spec) for spec in specs]
        # every case has specs that bound and specs that are infeasible
        assert InfeasibleSearchError in pruned
        assert any(isinstance(r, str) for r in pruned)
        ceilings = _no_ceiling(monkeypatch)
        assert [self.outcome(*spec) for spec in specs] == pruned
        assert ceilings

    @pytest.mark.parametrize("case", dh.POLY_CASES)
    @settings(max_examples=150, deadline=None)
    @given(lam=st.floats(*optimizer.POLY_BOXES["lambda"]),
           b=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           phi=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    @example(**CEILING_EXAMPLES[0])
    @example(**CEILING_EXAMPLES[1])
    @example(**CEILING_EXAMPLES[2])
    @example(**CEILING_EXAMPLES[3])
    @example(**CEILING_EXAMPLES[4])
    def test_ceiling_is_at_least_the_j_maximum(self, case, lam, b, phi):
        case = dh.get_case(case)
        ceiling = optimizer._j_ceiling(case, b, lam, phi, optimizer._j_box(case))[0]
        assert math.isfinite(ceiling)
        assert ceiling >= _full_inner(case, b, lam, phi)[0]

    @pytest.mark.parametrize("case", dh.POLY_CASES)
    def test_ceiling_is_the_built_rule_to_the_bit(self, case):
        # the section reads the ceiling and its peak without building the
        # lambda; they are the rule applied to the full build, the target and
        # stationary J of dh._poly_at, at every coarse lambda and more, and
        # the peak's root is the one dh._poly_bound solves at its J
        case = dh.get_case(case)
        j_lo, j_hi = optimizer._j_box(case)
        regimes = set()
        for b, phi, lam in itertools.product(GRID_B, GRID_PHI, GRID_LAMS):
            at = dh._poly_at(case, b, lam, phi, case._sides.at(b, lam))
            _, target, stationary, _, _ = at
            Js = [J for J in (j_lo, j_hi, *stationary) if j_lo <= J <= j_hi]
            targets = [target(J) for J in Js]
            want_J = None
            if any(map(math.isnan, targets)):
                want, x = math.inf, math.nan
            else:
                t = min(targets)
                if t >= _kernels.P1:
                    x = 0.0
                elif t <= _kernels._p4(lam / (lam + dh.POLY_HI)):
                    x = dh.POLY_HI
                else:
                    x = lam / _kernels._p4_newton(t, 1.0) - lam
                    peak = {J for J, target_J in zip(Js, targets) if target_J == t}
                    if len(peak) == 1:
                        want_J = peak.pop()
                        assert dh._poly_bound(at, lam, want_J)[1].hex() == x.hex()
                want = x + 1e-12 * (lam + x)
                regimes.add("0" if x == 0.0 else "top" if x == dh.POLY_HI else "root")
            got = optimizer._j_ceiling(case, b, lam, phi, (j_lo, j_hi))
            assert (got[0].hex(), got[1].hex(), got[2]) == (want.hex(), x.hex(), want_J), \
                (b, phi, lam)
        assert regimes == {"0", "top", "root"}

    def test_examples_reach_each_regime(self):
        finite = {"h(0) > 0": set(), "past 1000": set()}
        no_root = set()
        for name in dh.POLY_CASES:
            case = dh.get_case(name)
            for ex in CEILING_EXAMPLES:
                lam, b, phi = ex["lam"], ex["b"], ex["phi"]
                positive, past = _regimes(case, b, lam, phi)
                v = _full_inner(case, b, lam, phi)[0]
                if math.isfinite(v):
                    finite["h(0) > 0"].update([name] if positive else [])
                    finite["past 1000"].update([name] if past else [])
                elif positive and not past:
                    no_root.add(name)
        # cc-lp-nonprincipal is the case whose J box starts at j_min = 0.25
        assert all("cc-lp-nonprincipal" in names for names in finite.values())
        assert "cc-lp-nonprincipal" in no_root


class TestSlackPeak:
    """Where the side condition is slack at the ceiling's peak, the section
    values a lambda by the peak's root with no build
    (``optimizer._slack_peak``): that root is the full candidate maximum to
    the bit, and the peak's J the first candidate that reaches it.  These
    compare float bits, so they rest on CPython's float arithmetic."""

    @staticmethod
    def path(case, b, lam, phi):
        """'slack' where the slack path applies at (b, lam, phi), 'binds'
        where the side limit binds at the peak's J, else 'other'; a slack
        value and J must be those of ``_full_inner``."""
        peak = optimizer._j_ceiling(case, b, lam, phi, optimizer._j_box(case))
        side_x = case._sides.at(b, lam)[0]
        slack = optimizer._slack_peak(peak, side_x)
        _, x, J = peak
        if J is not None and x >= side_x(J):
            assert slack is None, (case.name, b, lam, phi)
            return "binds"
        if slack is None:
            return "other"
        v, J_first = _full_inner(case, b, lam, phi)
        assert (slack[0].hex(), slack[1]) == (v.hex(), J_first), (case.name, b, lam, phi)
        return "slack"

    @pytest.mark.parametrize("case", dh.POLY_CASES)
    def test_slack_peak_is_the_full_maximum_on_the_grid(self, case):
        case = dh.get_case(case)
        paths = [self.path(case, b, lam, phi)
                 for b, phi, lam in itertools.product(GRID_B, GRID_PHI, GRID_LAMS)]
        assert "slack" in paths and "other" in paths

    @pytest.mark.parametrize("key", POLY_TABLES)
    def test_slack_peak_is_the_full_maximum_on_the_middle_row(self, monkeypatch, key):
        # at the grid's lambda and at every lambda the search scores; the T4,
        # T5, T9 and T10 rows score each by the slack path, the T3 rows,
        # where the side limit binds, do not
        t = tables.load_table(key)
        case, b = dh.get_case(t.case_name), t.rows[len(t.rows) // 2].b
        paths = {self.path(case, b, lam, dh.PHI) for lam in GRID_LAMS}
        # the peak's lambda, from the ceiling that formed it
        scored, lam_of = [], {}
        ceiling, slack_peak = optimizer._j_ceiling, optimizer._slack_peak

        def ceiling_spy(*args):
            peak = ceiling(*args)
            lam_of[id(peak)] = args[2]
            return peak

        monkeypatch.setattr(optimizer, "_j_ceiling", ceiling_spy)
        monkeypatch.setattr(optimizer, "_slack_peak",
                            lambda peak, side_x: scored.append(lam_of[id(peak)])
                            or slack_peak(peak, side_x))
        maximize_bound(SearchSpec(t.case_name, b))
        monkeypatch.undo()
        assert scored
        on_path = {self.path(case, b, lam, dh.PHI) for lam in scored}
        if key in ("T3:quadratic", "T3:principal"):
            assert "binds" in on_path | paths
        else:
            assert on_path == {"slack"} and "slack" in paths


#: (lambda, b, phi) where every case has a finite J-maximum v and settles
#: against v (1 + 1e-9)
SETTLE_POINT = {"lam": 1.0, "b": 0.1227, "phi": 0.25}


class TestSettle:
    """A side-limited lambda where no J can score its rival is settled in
    closed form (``optimizer._j_settles``), with no build: it loses its
    comparison as its value would, so no result moves by a bit.  These
    compare float bits, so they rest on CPython's float arithmetic."""

    @pytest.mark.parametrize("key", POLY_TABLES)
    def test_settling_changes_no_table_result(self, monkeypatch, key):
        # one row per width band; only the side-limited T3 rows reach the
        # settle, the others value every lambda they score by its slack peak
        t = tables.load_table(key)
        n = len(t.rows)
        specs = [(t.case_name, t.rows[(2 * k + 1) * n // 6].b, dh.PHI) for k in range(3)]
        settled = _settled(monkeypatch)
        want = [TestCeiling.outcome(*spec) for spec in specs]
        monkeypatch.undo()
        calls = _no_settle(monkeypatch)
        assert [TestCeiling.outcome(*spec) for spec in specs] == want
        assert bool(settled) == bool(calls) == (key in ("T3:quadratic", "T3:principal"))

    @pytest.mark.parametrize("case", dh.POLY_CASES)
    def test_settling_changes_no_grid_result(self, monkeypatch, case):
        specs = [(case, b, phi) for b in GRID_B for phi in GRID_PHI]
        settled = _settled(monkeypatch)
        want = [TestCeiling.outcome(*spec) for spec in specs]
        assert settled
        monkeypatch.undo()
        calls = _no_settle(monkeypatch)
        assert [TestCeiling.outcome(*spec) for spec in specs] == want
        assert len(calls) > len(settled)

    @pytest.mark.parametrize("case", dh.POLY_CASES)
    @settings(max_examples=150, deadline=None)
    @given(lam=st.floats(*optimizer.POLY_BOXES["lambda"]),
           b=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           phi=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           scale=st.one_of(st.sampled_from((1.0 - 1e-9, 1.0, 1.0 + 1e-13, 1.0 + 1e-9)),
                           st.floats(0.5, 2.0)))
    @example(**SETTLE_POINT, scale=1.0 - 1e-9)
    @example(**SETTLE_POINT, scale=1.0 - 1e-13)
    @example(**SETTLE_POINT, scale=1.0)
    @example(**SETTLE_POINT, scale=1.0 + 1e-13)
    @example(**SETTLE_POINT, scale=1.0 + 1e-9)
    @example(**CEILING_EXAMPLES[0], scale=1.0 + 1e-13)
    @example(**CEILING_EXAMPLES[3], scale=1.0)
    def test_a_settled_lambda_has_no_j_that_scores_its_rival(self, case, lam, b, phi, scale):
        # the rival is v scale for the full candidate maximum v, or scale
        # where v is -inf; a settle at or below v would lose a lambda that
        # wins its comparison
        case = dh.get_case(case)
        v = _full_inner(case, b, lam, phi)[0]
        rival = v * scale if math.isfinite(v) else scale
        if optimizer._j_settles(case, b, lam, phi, optimizer._j_box(case), rival):
            assert v < rival

    @pytest.mark.parametrize("case", dh.POLY_CASES)
    def test_the_settle_is_within_1e_9_of_the_maximum(self, case):
        # the margin is the ceiling's, 1e-12 of lambda + rival: the settle
        # holds against v (1 + 1e-9), never at or below v (1 + 1e-13)
        case = dh.get_case(case)
        v = _full_inner(case, SETTLE_POINT["b"], SETTLE_POINT["lam"], SETTLE_POINT["phi"])[0]
        settles = [optimizer._j_settles(case, SETTLE_POINT["b"], SETTLE_POINT["lam"],
                                        SETTLE_POINT["phi"], optimizer._j_box(case), v * scale)
                   for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-13, 1.0 + 1e-9)]
        assert settles == [False, False, False, True]


def _cliff(x, rival=None):   # -inf left of 0.4, one peak at 0.7
    return -math.inf if x < 0.4 else 1.0 - (x - 0.7) ** 2


def _shelf(x, rival=None):   # exact ties on [0.5, 1]
    return min(x, 0.5)


def _stairs(x, rival=None):   # plateaus with exact ties, two of them at the top, and -inf
    return -math.inf if x > 0.95 else math.floor(4.0 * math.sin(9.0 * x)) / 4.0


def _void(x, rival=None):
    return -math.inf


def _piece(values, x):   # a step function on [0, 1] with these values
    return values[min(int(x * len(values)), len(values) - 1)]


class TestGoldenMax:
    """``_golden_max`` with a valid ceiling returns what it returns without."""

    @pytest.mark.parametrize("fn", [_cliff, _shelf, _stairs, _void])
    @pytest.mark.parametrize("lift", [
        lambda v: v,                                 # the ceiling is fn itself
        lambda v: v + 0.1,
        lambda v: math.ceil(8.0 * v) / 8.0 if math.isfinite(v) else v,
        lambda v: math.inf,
    ], ids=["exact", "above", "steps", "inf"])
    @pytest.mark.parametrize("coarse", [13, 25])
    def test_bound_changes_no_result(self, fn, lift, coarse):
        calls = {"plain": 0, "bound": 0}

        def counted(key):
            def f(x, rival):
                calls[key] += 1
                return fn(x)
            return f

        plain = optimizer._golden_max(counted("plain"), 0.0, 1.0,
                                      optimizer._Budget(math.inf), coarse=coarse)
        bound = optimizer._golden_max(counted("bound"), 0.0, 1.0,
                                      optimizer._Budget(math.inf), coarse=coarse,
                                      bound=lambda x: lift(fn(x)))
        assert repr(bound) == repr(plain)
        assert calls["bound"] <= calls["plain"]

    @settings(max_examples=400, deadline=None)
    @given(levels=st.lists(st.sampled_from([-math.inf, 0.0, 0.25, 0.5]),
                           min_size=1, max_size=40),
           lifts=st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=1, max_size=40))
    def test_bound_changes_no_result_on_steps(self, levels, lifts):
        # step functions tie at many points, and a ceiling that lifts some
        # steps and not others can equal the value it is compared with
        def piece(values, x):
            return values[min(int(x * len(values)), len(values) - 1)]

        def fn(x, rival=None):
            return piece(levels, x)

        got = optimizer._golden_max(fn, 0.0, 1.0, optimizer._Budget(math.inf), coarse=25,
                                    bound=lambda x: fn(x) + piece(lifts, x))
        want = optimizer._golden_max(fn, 0.0, 1.0, optimizer._Budget(math.inf), coarse=25)
        assert repr(got) == repr(want)

    def test_a_ceiling_equal_to_its_rival_is_evaluated(self):
        # the coarse best is 1 at x = 0.5; the section's third point, x =
        # 0.4780, has value 0.5 but ceiling 1, equal to the value it is
        # compared with.  Its value, not its ceiling, sends the section to
        # the step of 2 at x = 0.4977
        def fn(x, rival=None):
            if 0.495 < x < 0.4995:
                return 2.0
            if 0.48 <= x < 0.515:
                return 1.0
            return 0.5 if 0.4584 <= x < 0.48 else 0.0

        got = optimizer._golden_max(fn, 0.0, 1.0, optimizer._Budget(math.inf), coarse=25,
                                    bound=lambda x: 1.0 if 0.47 <= x < 0.48 else fn(x))
        want = optimizer._golden_max(fn, 0.0, 1.0, optimizer._Budget(math.inf), coarse=25)
        assert want[1] == 2.0 and repr(got) == repr(want)

    def test_exact_ceiling_spares_most_evaluations(self):
        calls = []
        optimizer._golden_max(lambda x, rival: calls.append(x) or _cliff(x), 0.0, 1.0,
                              optimizer._Budget(math.inf), coarse=25, bound=_cliff)
        assert 0 < len(calls) < 25


def _decided(fn, settles, budget, coarse=13):
    """``_golden_max``'s (x, v), the budget left and the values of fn formed,
    where the objective returns -inf in place of fn(x) wherever
    settles(x, rival), or forms every value where settles is None."""
    calls = []

    def objective(x, rival):
        if settles is not None and settles(x, rival):
            return -math.inf
        calls.append(x)
        return fn(x)

    left = optimizer._Budget(budget)
    got = optimizer._golden_max(objective, 0.0, 1.0, left, coarse=coarse)
    return got, left.left, len(calls)


class TestGoldenMaxDecider:
    """``_golden_max`` with an objective that returns -inf in place of its
    value wherever it can tell that value is below the rival returns what it
    returns with one that forms every value, and spends the same budget,
    wherever the budget runs out, with fewer values formed."""

    @pytest.mark.parametrize("fn", [_cliff, _shelf, _stairs, _void])
    @pytest.mark.parametrize("settles", [
        lambda v, rival: v < rival,          # every loser
        lambda v, rival: v < rival - 0.25,   # clear losers only
        lambda v, rival: v == -math.inf,     # rejected points only, never an equal one
    ], ids=["every", "clear", "rejected"])
    # the budget runs out in the coarse scan, in the golden section, or never
    @pytest.mark.parametrize("budget", [5, 20, math.inf])
    @pytest.mark.parametrize("coarse", [13, 25])
    def test_decider_changes_no_result(self, fn, settles, budget, coarse):
        got, left, calls = _decided(fn, lambda x, rival: settles(fn(x), rival) and
                                    fn(x) < rival, budget, coarse)
        want, want_left, want_calls = _decided(fn, None, budget, coarse)
        assert (repr(got), left) == (repr(want), want_left)
        assert calls <= want_calls

    @pytest.mark.parametrize("fn", [_cliff, _shelf, _stairs])
    def test_decider_spares_evaluations(self, fn):
        got, left, calls = _decided(fn, lambda x, rival: fn(x) < rival, math.inf)
        want, want_left, want_calls = _decided(fn, None, math.inf)
        assert repr(got) == repr(want) and left == want_left
        assert calls < want_calls

    @settings(max_examples=400, deadline=None)
    @given(levels=st.lists(st.sampled_from([-math.inf, 0.0, 0.25, 0.5]),
                           min_size=1, max_size=40),
           settle=st.lists(st.booleans(), min_size=1, max_size=40),
           budget=st.sampled_from([1, 3, 9, 14, 17, math.inf]))
    def test_decider_changes_no_result_on_steps(self, levels, settle, budget):
        # step functions tie at many points, and -inf plateaus leave no
        # rival to lose to; the objective settles some losers and not others
        def fn(x):
            return _piece(levels, x)

        def settles(x, rival):
            return _piece(settle, x) and fn(x) < rival

        got, left, calls = _decided(fn, settles, budget, coarse=25)
        want, want_left, want_calls = _decided(fn, None, budget, coarse=25)
        assert (repr(got), left) == (repr(want), want_left)
        assert calls <= want_calls


class TestSmoothedSearch:
    def test_band_on_reference_row(self):
        res = optimizer.optimize_family_smoothed("sz-lp-principal", 0.0875, budget=250)
        assert 0.80 * 1.836 <= res.lambda_star <= 1.05 * 1.836

    def test_warm_seed_used(self):
        """A seed at a larger budget's optimum carries a starved search there:
        every profile, the winning one included, starts from it."""
        best = optimizer.optimize_family_smoothed("sz-lp-quadratic", 0.05, budget=400)
        seed = {"alpha": best.params["alpha"], "s": best.params["s"]}
        cold = optimizer.optimize_family_smoothed("sz-lp-quadratic", 0.05, budget=80)
        warm = optimizer.optimize_family_smoothed("sz-lp-quadratic", 0.05, budget=80,
                                                  seed_params=seed)
        assert warm.lambda_star >= best.lambda_star > cold.lambda_star

    @pytest.mark.parametrize("case, b", [("sz-lp-principal", 1e-5),
                                         ("cc-l2-chi2-principal-real", 0.35)])
    def test_result_is_the_winning_weights_own_root(self, case, b):
        # the search solves from guesses; its result is the winner's root
        # without one, the same bits as a solve of that weight by itself
        res = optimizer.optimize_family_smoothed(case, b, budget=80)
        f = trial_functions.autocorrelation(
            **{k: res.params[k] for k in ("alpha", "c0", "c1", "beta", "s")})
        alone = dh.solve_smoothed(case, f, b)
        assert (alone.lambda_star, alone.residual) == (res.lambda_star, res.residual)

    @pytest.mark.parametrize("case, b", [("sz-lp-principal", 0.05),
                                         ("cc-l2-chi2-principal-real", 0.35)])
    def test_maximize_bound_runs_the_family_search(self, case, b):
        # a smoothed spec is the family search at its budget and phi
        got = maximize_bound(SearchSpec(case, b, max_evals=120))
        want = optimizer.optimize_family_smoothed(case, b, budget=120)
        assert repr(got) == repr(want)

    def test_maximize_bound_raises_where_no_weight_bounds(self):
        # at b = 0 the 'sz' h is the constant psi f(0) - F(0): the family
        # search finds no weight, and maximize_bound says so
        assert optimizer.optimize_family_smoothed("sz-lp-quadratic", 0.0, budget=80) is None
        with pytest.raises(InfeasibleSearchError, match="no admissible substitute weight"):
            maximize_bound(SearchSpec("sz-lp-quadratic", 0.0, max_evals=80))


class TestRedescent:
    """A re-descent reaches a peak that the first descent converged past.

    The low bump at x = 0.25 is wide in y, so the first descent's x scan at
    the start's y finds it and the descent settles on it; the high bump at
    x = 0.75 is narrow in y and invisible from the start's y.  The
    re-descent's first sweep scans x across the whole box again, now at the
    low peak's y, which is also the high peak's.
    """

    BOXES = ((0.0, 1.0), (0.0, 1.0))
    START = (0.5, 0.1)

    @staticmethod
    def two_peaks(point, rival):
        x, y = point
        low = math.exp(-((x - 0.25) ** 2 / 0.02 + (y - 0.5) ** 2 / 0.5))
        high = 2.0 * math.exp(-((x - 0.75) ** 2 / 0.02 + (y - 0.5) ** 2 / 8e-4))
        return low + high

    def test_restarts_reach_the_higher_peak(self):
        (x, _), descent = optimizer._coordinate_descent(
            self.two_peaks, self.BOXES, self.START, optimizer._Budget(2000))
        assert x == pytest.approx(0.25, abs=1e-3)
        assert descent < 1.01
        (x, y), refined = optimizer._run_restarts(
            self.two_peaks, self.BOXES, [self.START], 2000)
        assert refined > 1.99
        assert x == pytest.approx(0.75, abs=1e-3)
        assert y == pytest.approx(0.5, abs=1e-3)


class TestBudget:
    """Each search makes at most its budget of objective evaluations, plus the
    final solve (and, for the density search, the final bound).  The family
    searches give each of their two profiles at least 40 evaluations, so a
    budget below 80 runs about 80.  A family search scores a weight through
    its per-weight entry point (``dh._search_root``,
    ``zero_density.bound_if_admissible``); the public solver or bound runs
    once, for the winner.  The smoothed search's one scorer settles a weight
    that only has to lose one comparison by a sign check in place of its root
    (``dh._search_root`` returns None): each evaluation makes one root solve
    (any other return) or one decision, or reads the memo."""

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    @staticmethod
    def evaluations(monkeypatch):
        """The budget units the searches spend, as a list that fills up."""
        units, spend = [], optimizer._Budget.spend
        monkeypatch.setattr(optimizer._Budget, "spend",
                            lambda self: spend(self) and not units.append(None))
        return units

    @staticmethod
    def scored(monkeypatch):
        """(root solves, settled weights) of ``dh._search_root``'s calls, by
        whether it returns None, as lists that fill up."""
        roots, settled, search_root = [], [], dh._search_root

        def recording(*args):
            root = search_root(*args)
            (settled if root is None else roots).append(args)
            return root

        monkeypatch.setattr(dh, "_search_root", recording)
        return roots, settled

    def test_smoothed_search(self, monkeypatch):
        units = self.evaluations(monkeypatch)
        roots, settled = self.scored(monkeypatch)
        solves = self.counted(monkeypatch, dh, "solve_smoothed")
        optimizer.optimize_family_smoothed("sz-lp-principal", 0.0875, budget=120)
        assert len(units) == 120
        assert len(roots) + len(settled) <= len(units)
        # 50 root solves for 120 evaluations, 116 without the sign checks
        assert len(roots) <= 0.45 * len(units)
        assert len(solves) == 1

    def test_density_search(self, monkeypatch):
        scores = self.counted(monkeypatch, zero_density, "bound_if_admissible")
        bounds = self.counted(monkeypatch, zero_density, "n_lambda_bound")
        optimizer.optimize_zd(0.2, 0.0, budget=60)
        assert 60 <= len(scores) <= 82
        assert len(bounds) == 1

    @pytest.mark.parametrize("search", [
        lambda: optimizer.optimize_family_smoothed("sz-lp-principal", 0.0875, budget=120),
        lambda: optimizer.optimize_zd(0.2, 0.0, budget=60),
    ], ids=["smoothed", "density"])
    def test_repeated_points_are_not_rebuilt(self, monkeypatch, search):
        # the searches revisit points (a seed the coarse scan also hits, a
        # re-descent's start); only the winner is built a second time, after
        # the search, as a TrialFunction for the result
        builds, build = [], trial_functions._search_code
        monkeypatch.setattr(trial_functions, "_search_code",
                            lambda *args: builds.append(args) or build(*args))
        search()
        assert len(builds) > 60
        assert len(builds) - len(set(builds)) == 1 and builds[-1] in builds[:-1]

    def test_family_floor(self, monkeypatch):
        # budget 1 still runs 40 evaluations per profile: 40 root solves, 76
        # without the sign checks
        units = self.evaluations(monkeypatch)
        roots, settled = self.scored(monkeypatch)
        solves = self.counted(monkeypatch, dh, "solve_smoothed")
        optimizer.optimize_family_smoothed("sz-lp-principal", 0.1, budget=1)
        assert len(units) == 80 and len(solves) == 1
        assert len(roots) + len(settled) <= len(units) and len(roots) <= 0.55 * len(units)
        scores = self.counted(monkeypatch, zero_density, "bound_if_admissible")
        bounds = self.counted(monkeypatch, zero_density, "n_lambda_bound")
        optimizer.optimize_zd(0.2, budget=1)
        assert 60 <= len(scores) <= 82 and len(bounds) == 1

    def test_family_search_default_is_search_spec_default(self, monkeypatch):
        # 6000 for maximize_bound and optimize_family_smoothed alike (the
        # latter's own default was 400)
        budgets = []
        monkeypatch.setattr(optimizer, "_search_profiles",
                            lambda score, boxes, seeds, budget: budgets.append(budget))
        assert optimizer.optimize_family_smoothed("sz-lp-principal", 0.1) is None
        with pytest.raises(InfeasibleSearchError):
            maximize_bound(SearchSpec("sz-lp-principal", 0.1))
        assert budgets == [SearchSpec.max_evals] * 2 == [6000] * 2

    def test_poly_search(self, monkeypatch):
        units = self.evaluations(monkeypatch)
        scores = self.counted(monkeypatch, dh, "_poly_bound")
        solves = self.counted(monkeypatch, dh, "solve_poly")
        maximize_bound(SearchSpec("cc-lp-nonprincipal", 0.1227, max_evals=300))
        # the units are the lambda section's own, which its tolerance bounds
        # to 41 lambda: its ceiling spares most of them (6 scored), and a
        # lambda whose peak is slack calls no dh._poly_bound: only the
        # winner's solve_poly does
        assert 0 < len(units) <= 6
        assert len(scores) == len(solves) == 1

    @pytest.mark.parametrize("case", ["sz-lp-quadratic-medium", "cc-lp-nonprincipal"])
    def test_poly_search_reads_no_budget(self, case):
        # a budget of candidate scores truncated the search silently: at 1,
        # sz-lp-quadratic-medium raised InfeasibleSearchError for a row whose
        # bound is 0.466463, and at 2 it returned 0.452175
        want = maximize_bound(SearchSpec(case, 0.1227))
        for budget in (1, 2, 5):
            assert maximize_bound(SearchSpec(case, 0.1227, max_evals=budget)) == want


class TestInvalidInput:
    """The searches reject inadmissible input before their first evaluation."""

    counted = staticmethod(TestBudget.counted)

    @pytest.mark.parametrize("kwargs", [
        {"vartheta": 0.5}, {"lam": -0.1}, {"lam": math.nan}, {"b": math.nan},
        {"b": -1.0}, {"phi": math.inf}, {"phi": 0.0}])
    def test_density_search(self, monkeypatch, kwargs):
        builds = self.counted(monkeypatch, trial_functions, "_search_code")
        with pytest.raises(InvalidParameterError):
            optimizer.optimize_zd(**{"lam": 0.2, "b": 0.0, **kwargs})
        assert builds == []

    @pytest.mark.parametrize("b, phi", [(math.nan, dh.PHI), (-1.0, dh.PHI),
                                        (0.05, math.nan)])
    def test_smoothed_search(self, monkeypatch, b, phi):
        builds = self.counted(monkeypatch, trial_functions, "_search_code")
        with pytest.raises(InvalidParameterError):
            optimizer.optimize_family_smoothed("sz-lp-principal", b, phi=phi)
        with pytest.raises(InvalidParameterError):
            maximize_bound(SearchSpec("sz-lp-principal", b, phi=phi))
        assert builds == []

    def test_smoothed_search_needs_a_smoothed_case(self, monkeypatch):
        builds = self.counted(monkeypatch, trial_functions, "_search_code")
        with pytest.raises(InvalidParameterError, match="not a smoothed case"):
            optimizer.optimize_family_smoothed("cc-lp-nonprincipal", 0.1)
        assert builds == []

    @pytest.mark.parametrize("seed", [
        {"alpha": 0.0, "s": 12.0}, {"alpha": 0.0, "s": 0.1}, {"alpha": 4.5, "s": 1.0},
        {"alpha": -4.5, "s": 1.0}, {"alpha": math.nan, "s": 1.0},
        {"alpha": 0.0, "s": math.inf}, {"alpha": "0", "s": 1.0},
        # True was searched as alpha = 1
        {"alpha": True, "s": 1.0}, {"alpha": 0.0, "s": np.bool_(True)}])
    def test_smoothed_seed_outside_the_box(self, monkeypatch, seed):
        # (alpha, s) = (0, 12) has F(-60) = inf: scored on [0, 60] it would
        # give no root and silently score -inf
        if seed["s"] == 12.0:
            code = trial_functions.autocorrelation_code(*optimizer._generator(0.0, 12.0, 1.0))[0]
            assert _kernels._f_real_scalar(code, -dh.HI) == math.inf
        builds = self.counted(monkeypatch, trial_functions, "_search_code")
        roots = self.counted(monkeypatch, dh, "_search_root")
        with pytest.raises(InvalidParameterError, match="seed"):
            optimizer.optimize_family_smoothed("sz-lp-principal", 0.05, seed_params=seed)
        assert builds == roots == []

    def test_smoothed_seed_takes_any_real_number(self):
        # NumPy reals were refused as "must be a number"; a seed enters the
        # search as floats, so it searches as the same seed in floats does
        want = optimizer.optimize_family_smoothed("sz-lp-principal", 0.05, budget=1,
                                                  seed_params={"alpha": 0.5, "s": 1.0})
        got = optimizer.optimize_family_smoothed(
            "sz-lp-principal", 0.05, budget=1,
            seed_params={"alpha": np.float32(0.5), "s": np.int64(1)})
        assert repr(got) == repr(want)

    def test_smoothed_seed_message_shows_the_value(self):
        with pytest.raises(InvalidParameterError) as info:
            optimizer.optimize_family_smoothed("sz-lp-principal", 0.05,
                                               seed_params={"alpha": np.float64(5.0), "s": 1.0})
        assert str(info.value) == "seed alpha must be a number in [-4.0, 4.0], got 5.0"

    @pytest.mark.parametrize("seed, missing", [({"alpha": 0.0}, "['s']"),
                                               ({"s": 1.0}, "['alpha']"), ({}, "['alpha', 's']")])
    def test_smoothed_seed_missing_a_parameter(self, monkeypatch, seed, missing):
        builds = self.counted(monkeypatch, trial_functions, "_search_code")
        roots = self.counted(monkeypatch, dh, "_search_root")
        with pytest.raises(InvalidParameterError) as info:
            optimizer.optimize_family_smoothed("sz-lp-principal", 0.01, seed_params=seed)
        assert str(info.value) == f"seed_params must give alpha and s; missing {missing}"
        assert builds == roots == []

    def test_smoothed_seed_on_the_box_corner_is_scored_first(self, monkeypatch):
        builds, build = [], trial_functions._search_code
        monkeypatch.setattr(trial_functions, "_search_code",
                            lambda *args: builds.append(args) or build(*args))
        optimizer.optimize_family_smoothed("sz-lp-principal", 0.05, budget=1,
                                           seed_params={"alpha": 4.0, "s": 10.0})
        assert builds[0] == optimizer._generator(4.0, 10.0, optimizer.PROFILES[0])

    @pytest.mark.parametrize("b, phi", [(math.nan, dh.PHI), (-1.0, dh.PHI),
                                        (0.1227, math.inf),
                                        # (5 + b)^4 overflows at the lambda box's top
                                        (1e78, dh.PHI)])
    def test_poly_search(self, monkeypatch, b, phi):
        scores = self.counted(monkeypatch, dh, "_poly_bound")
        solves = self.counted(monkeypatch, dh, "solve_poly")
        with pytest.raises(InvalidParameterError):
            maximize_bound(SearchSpec("cc-lp-nonprincipal", b, phi=phi))
        assert scores == solves == []

    @pytest.mark.parametrize("search", [
        lambda budget, phi: maximize_bound(
            SearchSpec("cc-lp-nonprincipal", 0.1227, max_evals=budget, phi=phi)),
        lambda budget, phi: maximize_bound(
            SearchSpec("sz-lp-principal", 0.1, max_evals=budget, phi=phi)),
        lambda budget, phi: optimizer.optimize_family_smoothed(
            "sz-lp-principal", 0.1, budget=budget, phi=phi),
        lambda budget, phi: optimizer.optimize_zd(0.2, phi=phi, budget=budget),
    ], ids=["poly", "smoothed", "family", "density"])
    @pytest.mark.parametrize("budget, phi, word", [
        (0, dh.PHI, "budget"), (-1, dh.PHI, "budget"), (math.inf, dh.PHI, "budget"),
        (10, -0.25, "phi")])
    def test_budget_and_phi(self, monkeypatch, search, budget, phi, word):
        # a budget below 1 or infinite and a negative phi are rejected alike
        # by every search, before its first evaluation
        calls = [self.counted(monkeypatch, dh, "_search_root"),
                 self.counted(monkeypatch, dh, "_poly_bound"),
                 self.counted(monkeypatch, dh, "solve_poly"),
                 self.counted(monkeypatch, zero_density, "bound_if_admissible")]
        with pytest.raises(InvalidParameterError, match=word):
            search(budget, phi)
        assert calls == [[], [], [], []]


class TestZdSearch:
    def test_reference_heights(self):
        for lam, listed in ((0.1, 2), (0.2, 4), (0.3, 7)):
            n, params = optimizer.optimize_zd(lam, 0.0, budget=250)
            assert 1 <= n <= listed + 3
            assert params["bound"] >= 1.0

    def test_infeasible_height(self):
        n, params = optimizer.optimize_zd(0.9, 0.0, budget=120)
        assert math.isinf(n)
        assert params == {}


@pytest.mark.parametrize("lam", [0.1, 0.2, 0.4])
def test_density_score_is_minus_the_bound(monkeypatch, lam):
    """Over the weights T1's searches at lambda score, the search's score is
    -n_lambda_bound to the bit, and -inf exactly where that raises."""
    t1 = tables.load_table("T1")
    row = t1.cells[t1.lambdas.index(lam)]
    builds, scores = set(), []
    build, search = trial_functions._search_code, optimizer._search_profiles
    monkeypatch.setattr(trial_functions, "_search_code",
                        lambda *args: builds.add(args) or build(*args))
    monkeypatch.setattr(optimizer, "_search_profiles",
                        lambda score, *rest: scores.append(score) or search(score, *rest))
    for b, listed in zip(t1.b_values, row):
        if listed is None:
            continue
        builds.clear()
        optimizer.optimize_zd(lam, b, budget=60)
        failed = 0
        for args in sorted(builds):
            got = scores[-1](*build(*args), args, -math.inf)   # it ignores the rival
            q = zero_density.ZdQuery(trial_functions.autocorrelation(*args), lam, b)
            try:
                want = -zero_density.n_lambda_bound(q)
            except BoundUnavailableError:
                assert got == -math.inf, (b, args)
                failed += 1
                continue
            assert got == want, (b, args)
        assert len(builds) > 60 and 0 < failed < len(builds)


def test_density_search_uses_only_the_scalar_kernel(monkeypatch):
    """The density objective needs F at two real points and f(0): no array
    transform may run, not even for the final weight."""
    counts = {"builds": 0, "array": 0}
    build, array = trial_functions._search_code, _kernels.f_array

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(trial_functions, "_search_code", counted("builds", build))
    monkeypatch.setattr(_kernels, "f_array", counted("array", array))
    n, params = optimizer.optimize_zd(0.2, 0.0, budget=60)
    assert n == 4 and params["bound"] == pytest.approx(4.6257, abs=1e-4)
    assert counts["builds"] > 60
    assert counts["array"] == 0
