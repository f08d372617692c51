"""Parameter search: determinism, feasibility handling, table-row floors."""

import math

import pytest

from heckezeros import dh, optimizer, tables, trial_functions, zero_density
from heckezeros.errors import InfeasibleSearchError, InvalidParameterError
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
        ok, _ = dh.side_condition("cc-lp-principal", 0.0875,
                                  res.params["lambda"], res.params["J"],
                                  res.lambda_star * (1 - 1e-12))
        assert ok

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


class TestRedescent:
    """A re-descent reaches a peak that the first descent converged past.

    The low bump at x = 0.25 is wide in y, so the first descent's x scan at
    the start's y finds it and the descent settles on it; the high bump at
    x = 0.75 is narrow in y and invisible from the start's y.  The
    re-descent's first sweep scans x across the whole box again, now at the
    low peak's y, which is also the high peak's.
    """

    BOXES = {"x": (0.0, 1.0), "y": (0.0, 1.0)}
    START = {"x": 0.5, "y": 0.1}

    @staticmethod
    def two_peaks(x, y):
        low = math.exp(-((x - 0.25) ** 2 / 0.02 + (y - 0.5) ** 2 / 0.5))
        high = 2.0 * math.exp(-((x - 0.75) ** 2 / 0.02 + (y - 0.5) ** 2 / 8e-4))
        return low + high

    def test_restarts_reach_the_higher_peak(self):
        names = ("x", "y")
        point, descent = optimizer._coordinate_descent(
            self.two_peaks, names, self.BOXES, self.START, optimizer._Budget(2000))
        assert point["x"] == pytest.approx(0.25, abs=1e-3)
        assert descent < 1.01
        point, refined = optimizer._run_restarts(
            self.two_peaks, names, self.BOXES, [self.START], 2000, 1e-7)
        assert refined > 1.99
        assert point["x"] == pytest.approx(0.75, abs=1e-3)
        assert point["y"] == pytest.approx(0.5, abs=1e-3)


class TestBudget:
    """Each search makes at most its budget of objective evaluations, plus the
    final solve (and, for the density search, the final bound)."""

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_smoothed_search(self, monkeypatch):
        calls = self.counted(monkeypatch, dh, "solve_smoothed")
        optimizer.optimize_family_smoothed("sz-lp-principal", 0.0875, budget=120)
        assert len(calls) <= 121

    def test_density_search(self, monkeypatch):
        calls = self.counted(monkeypatch, zero_density, "n_lambda_bound")
        optimizer.optimize_zd(0.2, 0.0, budget=60)
        assert len(calls) <= 82

    def test_poly_search(self, monkeypatch):
        calls = self.counted(monkeypatch, dh, "solve_poly")
        maximize_bound(SearchSpec("cc-lp-nonprincipal", 0.1227, max_evals=300))
        assert len(calls) <= 301


class TestInvalidInput:
    """The searches reject inadmissible input before their first evaluation."""

    counted = staticmethod(TestBudget.counted)

    @pytest.mark.parametrize("kwargs", [
        {"vartheta": 0.5}, {"lam": -0.1}, {"lam": math.nan}, {"b": math.nan},
        {"b": -1.0}, {"phi": math.inf}, {"phi": 0.0}])
    def test_density_search(self, monkeypatch, kwargs):
        builds = self.counted(monkeypatch, optimizer, "_gen_family")
        with pytest.raises(InvalidParameterError):
            optimizer.optimize_zd(**{"lam": 0.2, "b": 0.0, **kwargs})
        assert builds == []

    @pytest.mark.parametrize("b, phi", [(math.nan, dh.PHI), (-1.0, dh.PHI),
                                        (0.05, math.nan)])
    def test_smoothed_search(self, monkeypatch, b, phi):
        builds = self.counted(monkeypatch, optimizer, "_gen_family")
        with pytest.raises(InvalidParameterError):
            optimizer.optimize_family_smoothed("sz-lp-principal", b, phi=phi)
        with pytest.raises(InvalidParameterError):
            maximize_bound(SearchSpec("sz-lp-principal", b, phi=phi))
        assert builds == []

    @pytest.mark.parametrize("b, phi", [(math.nan, dh.PHI), (-1.0, dh.PHI),
                                        (0.1227, math.inf)])
    def test_poly_search(self, monkeypatch, b, phi):
        solves = self.counted(monkeypatch, dh, "solve_poly")
        with pytest.raises(InvalidParameterError):
            maximize_bound(SearchSpec("cc-lp-nonprincipal", b, phi=phi))
        assert solves == []

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
        (0, dh.PHI, "budget"), (-1, dh.PHI, "budget"), (10, -0.25, "phi")])
    def test_budget_and_phi(self, monkeypatch, search, budget, phi, word):
        # a budget below 1 and a negative phi are rejected alike by every
        # search, before its first evaluation
        calls = [self.counted(monkeypatch, dh, "solve_smoothed"),
                 self.counted(monkeypatch, dh, "solve_poly"),
                 self.counted(monkeypatch, zero_density, "n_lambda_bound")]
        with pytest.raises(InvalidParameterError, match=word):
            search(budget, phi)
        assert calls == [[], [], []]


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


def test_density_search_uses_only_the_scalar_kernel(monkeypatch):
    """The density objective needs F at two real points and f(0): no array
    transform and no sup |f''| scan may run, not even for the final weight."""
    counts = {"builds": 0, "array": 0, "scan": 0}
    build = trial_functions.autocorrelation

    def counted(**params):
        f = build(**params)
        array_laplace, scan = f._laplace, f.content._B

        def laplace(z):
            counts["array"] += 1
            return array_laplace(z)

        def sup_f2():
            counts["scan"] += 1
            return scan()

        f._laplace = laplace
        object.__setattr__(f.content, "_B", sup_f2)
        counts["builds"] += 1
        return f

    monkeypatch.setattr(trial_functions, "autocorrelation", counted)
    n, params = optimizer.optimize_zd(0.2, 0.0, budget=60)
    assert n == 4 and params["bound"] == pytest.approx(4.6257, abs=1e-4)
    assert counts["builds"] > 60
    assert counts["array"] == counts["scan"] == 0
