"""The family search's snapped smoothed h: exactly 0 below h's rounding
floor, the exact h elsewhere.  Search roots stop at that floor; the returned
bound (the winner's cold ``solve_smoothed``, never snapped) does not, so the
search returns what it returns without the snap, with fewer transforms.  Its
warm solves take Newton steps on the derivative kernel, with fewer transforms
still; a weight that only has to lose one comparison is settled by the sign
of h at its rival's root, with no solve, and soundly.  The searches'
results are in the ledger, and their transform passes, budget units and
settled and solved scores in the counts (``tests/test_ledger.py``)."""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from heckezeros import _kernels, dh, optimizer, trial_functions as tf
from heckezeros.errors import NoBoundError

SMOOTHED_CASES = tuple(n for n, c in dh.CASES.items() if c.method == "smoothed")

WEIGHTS = (
    tf.triangle(2.5),
    tf.triangle(14.0),
    tf.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5),
    tf.autocorrelation(alpha=0.0, c0=1.0, c1=1.0, beta=math.pi / 2.0, s=2.0),
    tf.autocorrelation(alpha=1.0, c0=1.0, c1=1.0, beta=math.pi / 5.0, s=5.0),
)


def _parts(case, f, b):
    """(F, the builder arguments after F) of a case's h for weight f."""
    F = functools.partial(_kernels._f_real_scalar, f.kernel_code())
    return F, (case.form, float(case.c1), case.psi_over_phi * dh.PHI, b, f.f0)


def _snapped(f, args):
    """The snapped h of weight f and ``_parts``' builder arguments, F(0)
    evaluated."""
    code = f.kernel_code()
    return _kernels.snapped_fn(code, *args, _kernels._f_real_scalar(code, 0.0))


def _bracket_end(case, F):
    """The end of ``solve_smoothed``'s bracket [0, hi]: dh.HI, halved for the
    'sz' shape while F(-hi) is infinite."""
    hi = dh.HI
    while case.form == "sz" and hi > 1.0 and math.isinf(F(-hi)):
        hi *= 0.5
    return hi


def _search_like(case):
    """The weights of WEIGHTS whose bracket for the case is [0, dh.HI], as
    for every weight the search scores."""
    return [f for f in WEIGHTS
            if _bracket_end(case, functools.partial(_kernels._f_real_scalar,
                                                    f.kernel_code())) == dh.HI]


def _solved_root(case, f, b):
    """``solve_smoothed``'s root, NaN where it raises NoBoundError."""
    try:
        return dh.solve_smoothed(case, f, b).root
    except NoBoundError:
        return math.nan


def _floor(F, form, c1, psi, b, f0, x):
    """SNAP_EPS times the magnitudes of the terms h adds at x."""
    if form == "sz":
        terms = abs(c1) * (abs(F(-x)) + abs(F(b - x)))
    else:
        terms = abs(F(-b)) + abs(F(x - b))
    return _kernels.SNAP_EPS * (terms + abs(F(0.0)) + abs(psi * f0))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(SMOOTHED_CASES), i=st.integers(0, len(WEIGHTS) - 1),
       log_b=st.floats(-10.0, -0.3), t=st.floats(-1.0, 1.0), near=st.integers(-16, 0))
def test_snapped_h_is_zero_or_exact(name, i, log_b, t, near):
    # both shapes, widths 1e-10 .. 0.5; x near the exact root (relative offsets
    # 1e-16 .. 1, where the snap fires) or anywhere on the solve's bracket
    case, b = dh.get_case(name), 10.0 ** log_b
    F, args = _parts(case, WEIGHTS[i], b)
    root, hi = _solved_root(case, WEIGHTS[i], b), _bracket_end(case, F)
    x = root * (1.0 + t * 10.0 ** near) if math.isfinite(root) else 0.5 * hi * (1.0 + t)
    x = min(max(x, 0.0), hi)
    exact = _kernels.smoothed_fn(F, *args)(x)
    snapped = _snapped(WEIGHTS[i], args)(x)
    floor = _floor(F, *args, x)
    assert snapped == exact or (snapped == 0.0 and abs(exact) < floor), (x, exact, floor)
    if abs(exact) >= floor:   # never 0.0 outside the floor
        assert snapped == exact


def test_snap_fires_near_the_root_and_nowhere_else():
    # at a flat 'sz' root (b = 1e-6) a band of points snaps to 0; the same h
    # away from the root keeps every value
    case = dh.get_case("sz-lp-principal")
    F, args = _parts(case, WEIGHTS[2], 1e-6)
    root = dh.solve_smoothed(case, WEIGHTS[2], 1e-6).root
    exact = _kernels.smoothed_fn(F, *args)
    snapped = _snapped(WEIGHTS[2], args)
    near = [root * (1.0 + k * 1e-12) for k in range(-50, 51)]
    assert sum(snapped(x) == 0.0 != exact(x) for x in near) >= 10
    far = [root * k / 10.0 for k in range(1, 8)] + [root * (1.0 + k / 10.0) for k in range(1, 8)]
    assert all(snapped(x) == exact(x) != 0.0 for x in far)


@pytest.mark.parametrize("name", SMOOTHED_CASES)
def test_snapped_roots_fail_where_the_solver_fails(name):
    # over both shapes and widths 0 .. 0.4, a snapped search root is NaN
    # exactly where solve_smoothed raises NoBoundError, and otherwise within
    # h's rounding floor of its root.  Solved from a guess, a snapped root
    # takes Newton steps (test_newton_roots_fail_where_the_solver_fails).
    # A search root keeps its bracket [0, dh.HI], as no weight of the search's
    # box makes F(-HI) overflow, so a weight that does ('sz' at triangle(14))
    # is not one the search scores
    case = dh.get_case(name)
    for f in _search_like(case):
        code = f.kernel_code()
        F0 = _kernels._f_real_scalar(code, 0.0)
        for b in (0.0, 1e-10, 1e-6, 1e-3, 0.05, 0.2, 0.4):
            want = _solved_root(case, f, b)
            got = dh._search_root(case, code, f.f0, F0, b, dh.PHI, None, -math.inf)
            if math.isnan(want):
                assert math.isnan(got), (f, b)
                continue
            # the band where the snapped h is 0 is about eps |F| / h' wide,
            # and the 'sz' h' falls with b: 1.8e-6 at b = 1e-10, 5e-13 at
            # 1e-3, at most 6e-14 at b >= 0.05 and for 'cc' at b = 0
            tol = 1e-13 + (4e-15 / b if b > 0.0 else 0.0)
            assert abs(got - want) <= tol * max(1.0, want), (f, b)


def test_cc_weight_positive_at_zero_costs_two_transforms(monkeypatch):
    # a 'cc' h is h(0) = F(-b) - F(0) + psi f(0) - F(-b) at 0, read from its
    # constant: positive there, the weight bounds nothing, and the search's
    # root returns NaN after F(0) (the build's) and F(-b) alone, guess or
    # not.  The solver's error and message are unchanged
    f, case, b = tf.triangle(0.7), dh.get_case("cc-l2-chi2-principal-real"), 0.2
    with pytest.raises(NoBoundError, match=r"h stays positive on \[0, 60\.0\] for .*"
                                           r" \(no repulsion provable\)") as err:
        dh.solve_smoothed(case, f, b)
    assert err.value.sign == "positive"
    code, F, calls = f.kernel_code(), _kernels._f_real_scalar, []
    hlo = _kernels.snapped_fn(code, case.form, float(case.c1), case.psi_over_phi * dh.PHI, b,
                              f.f0, F(code, 0.0))(0.0)
    assert hlo > 0.0
    monkeypatch.setattr(_kernels, "_f_real_scalar",
                        lambda code, r: calls.append(r) or F(code, r))
    for guess in (None, 1.0):
        calls.clear()
        F0 = _kernels._f_real_scalar(code, 0.0)   # the search's F(0)
        assert math.isnan(dh._search_root(case, code, f.f0, F0, b, dh.PHI, guess, -math.inf))
        assert calls == [0.0, -b]


@pytest.mark.parametrize("name", SMOOTHED_CASES)
def test_newton_roots_fail_where_the_solver_fails(name):
    # the search's warm solve of a coded weight takes the Newton path on the
    # derivative kernel: NaN exactly where solve_smoothed raises NoBoundError,
    # and otherwise within h's rounding floor of its root, as the ITP path is,
    # over the weights the search could score.  A solve took the Newton path
    # where it called the derivative kernel, which nothing else calls
    case = dh.get_case(name)
    newton = 0
    for f in _search_like(case):
        code = f.kernel_code()
        F0 = _kernels._f_real_scalar(code, 0.0)
        for b in (0.0, 1e-10, 1e-6, 1e-3, 0.05, 0.2, 0.4):
            want = _solved_root(case, f, b)
            centre = want if math.isfinite(want) else 1.0
            for guess in (0.5 * centre, 0.9 * centre, 1.1 * centre, 3.0 * centre):
                with pytest.MonkeyPatch.context() as mp:
                    FD, passes = _kernels._f_real_scalar_d, []
                    mp.setattr(_kernels, "_f_real_scalar_d",
                               lambda code, r: passes.append(r) or FD(code, r))
                    got = dh._search_root(case, code, f.f0, F0, b, dh.PHI, guess, -math.inf)
                newton += bool(passes)
                if math.isnan(want):
                    assert math.isnan(got), (f, b, guess)
                    continue
                tol = 1e-13 + (4e-15 / b if b > 0.0 else 0.0)
                assert abs(got - want) <= tol * max(1.0, want), (f, b, guess)
    assert newton >= 50


def test_sz_weight_positive_at_zero_costs_three_passes(monkeypatch):
    # an 'sz' h positive at 0 bounds nothing.  Scored from a guess, the Newton
    # path evaluates h at the guess (two F/F' passes) and heads past 0, where
    # h(0) = c1 (F(0) - F(b)) - F(0) + psi f(0) takes F(b) alone, the given
    # F(0) standing in for F(-0); the search's bracket takes no overflow
    # probe F(-hi).  The weight is a seed of the search, whose code layout
    # the derivative kernel serves
    f = tf.autocorrelation(*optimizer._generator(0.0, 1.2, 1.0))
    case, b = dh.get_case("sz-lp-principal"), 0.05
    with pytest.raises(NoBoundError, match="no repulsion provable") as err:
        dh.solve_smoothed(case, f, b)
    assert err.value.sign == "positive"
    code = f.kernel_code()
    F, FD = _kernels._f_real_scalar, _kernels._f_real_scalar_d
    F0 = F(code, 0.0)
    hlo = _kernels.snapped_fn(code, case.form, float(case.c1), case.psi_over_phi * dh.PHI, b,
                              f.f0, F0)(0.0)
    assert hlo > 0.0
    passes = []
    monkeypatch.setattr(_kernels, "_f_real_scalar",
                        lambda code, r: passes.append(("F", r)) or F(code, r))
    monkeypatch.setattr(_kernels, "_f_real_scalar_d",
                        lambda code, r: passes.append(("F/F'", r)) or FD(code, r))
    root = dh._search_root(case, code, f.f0, F0, b, dh.PHI, 1.0, -math.inf)
    assert math.isnan(root)
    assert len(passes) <= 3 and ("F", b) in passes, passes


#: rows of both shapes at small, medium and large widths, and at b = 0, where
#: the 'sz' h is a constant and no weight bounds anything
SEARCH_ROWS = [("sz-lp-quadratic", 0.0), ("sz-lp-quadratic", 1e-7),
               ("sz-lp-principal", 0.05), ("sz-lp-principal", 0.17),
               ("cc-l2-chi2-principal-real", 0.1227), ("cc-l2-chi2-principal-real", 0.35),
               ("cc-l2-nonprincipal", 0.6)]


def _exact_search_root(case, code, f0, F0, b, phi, guess, rival):
    """A search scorer without the snap or the sign check: ITP on the exact h
    on [0, dh.HI], the guess and the rival unused, NaN where h has no sign
    change or is 0 at both ends."""
    h = _kernels.smoothed_fn(functools.partial(_kernels._f_real_scalar, code), case.form,
                             float(case.c1), case.psi_over_phi * phi, b, f0)
    root, hlo, hhi = _kernels.smoothed_root(h, 0.0, dh.HI)
    return math.nan if hlo == hhi == 0.0 else root


@pytest.mark.parametrize("name, b", SEARCH_ROWS)
def test_search_result_does_not_depend_on_the_snap(monkeypatch, name, b):
    # the search as it runs, snapped roots and sign checks of h at the
    # rival's root alike (``dh._search_root``), against one that solves every
    # weight exactly, with neither.  The sz-lp-quadratic row at b = 1e-7 ranks
    # near-tied weights by the 'sz' cancellation noise (ROADMAP item 8), so
    # its weight depends on the Newton guesses within the snap band: there
    # the search ends one ulp of alpha lower than the exact one, with the
    # same lambda_star bits (tests/ledger.json), and only lambda_star is
    # compared
    snapped = optimizer.optimize_family_smoothed(name, b, budget=120)
    monkeypatch.setattr(dh, "_search_root", _exact_search_root)
    exact = optimizer.optimize_family_smoothed(name, b, budget=120)
    if (name, b) == ("sz-lp-quadratic", 1e-7):
        assert exact.lambda_star.hex() == snapped.lambda_star.hex()
    else:
        assert repr(exact) == repr(snapped)


def _decided(monkeypatch):
    """The arguments of the ``dh._search_root`` calls that decide their weight
    with no root solve, as two lists that fill up: those that settle it below
    its rival (return None), and those that find from h's constant that it
    bounds nothing (return NaN with no ``_kernels.search_root`` call)."""
    settled, void, solves = [], [], []
    search_root, solve = dh._search_root, _kernels.search_root

    def recording(*args):
        n = len(solves)
        root = search_root(*args)
        if root is None:
            settled.append(args)
        elif math.isnan(root) and len(solves) == n:
            void.append(args)
        return root

    monkeypatch.setattr(dh, "_search_root", recording)
    monkeypatch.setattr(_kernels, "search_root", lambda *args: solves.append(1) or solve(*args))
    return settled, void


def _snap_band(case, code, f0, F0, b, phi, x):
    """The snapped h's band at x in x: its rounding floor there
    (``_kernels.SNAP_EPS`` times the terms h adds) over its slope."""
    psi = case.psi_over_phi * phi
    if case.form == "sz":
        (Fm, dFm), (Fp, dFp) = (_kernels._f_real_scalar_d(code, -x),
                                _kernels._f_real_scalar_d(code, b - x))
        terms = abs(case.c1) * (abs(Fm) + abs(Fp)) + abs(F0) + abs(psi * f0)
        slope = case.c1 * (dFp - dFm)
    else:
        Fx, dFx = _kernels._f_real_scalar_d(code, x - b)
        terms = abs(_kernels._f_real_scalar(code, -b)) + abs(F0) + abs(psi * f0) + abs(Fx)
        slope = -dFx
    return _kernels.SNAP_EPS * terms / slope


@pytest.mark.parametrize("name, b", SEARCH_ROWS + [("cc-l2-chi2-principal-real", 0.6068)])
def test_sign_checks_are_sound(monkeypatch, name, b):
    # every weight the search settles by the sign of h at its rival's root
    # (``dh._search_root`` returns None) has its cold root (no guess, no
    # rival) below that rival, or above it by less than the snap band's
    # width (twice the band at the rival), where h's sign is rounding noise:
    # none is above on these rows but one weight of the sz-lp-quadratic row
    # at b = 1e-7, by 1e-9 of the rival.  A 'cc' weight whose h is positive
    # at 0 bounds nothing, cold too; with the settled ones, these are the
    # weights decided with no root solve
    settled, void = _decided(monkeypatch)
    optimizer.optimize_family_smoothed(name, b, budget=120)
    monkeypatch.undo()
    above = 0
    for *args, _, rival in settled:
        root = dh._search_root(*args, None, -math.inf)
        if root >= rival:
            above += 1
            assert root - rival <= 2.0 * _snap_band(*args, rival), (args, rival, root)
    for *args, _, _ in void:
        assert math.isnan(dh._search_root(*args, None, -math.inf)), args
    if b > 0.0:
        assert len(settled) + len(void) >= 40
    assert above <= 1


def _visited(monkeypatch, name, b, budget):
    """The points ``snapped_fn``'s h(x, True) visited in a search at this
    budget, each with its h."""
    visited, build = [], _kernels.snapped_fn

    def recording(*args):
        h = build(*args)

        def wrapped(x, slope=False):
            if slope:
                visited.append((h, x))
            return h(x, slope)
        return wrapped

    monkeypatch.setattr(_kernels, "snapped_fn", recording)
    optimizer.optimize_family_smoothed(name, b, budget=budget)
    return visited


@pytest.mark.parametrize("name, b", [("sz-lp-principal", 0.05), ("cc-l2-chi2-principal-real", 0.35)])
def test_one_snapped_h_per_asked_weight(monkeypatch, name, b):
    # the search asks ``dh._search_root`` once per weight it scores, whether
    # the sign of h at the rival's root settles the weight or its root is
    # solved, and that one call builds the weight's snapped h once: a 'cc'
    # weight forms h's constant F(-b) once.  The winner's own solve reads F
    # through ``TrialFunction.laplace_real``, which these counts do not see
    asked, builds, constants = [], [], []
    settled, _ = _decided(monkeypatch)
    root, build, F = dh._search_root, _kernels.snapped_fn, _kernels._f_real_scalar
    monkeypatch.setattr(dh, "_search_root", lambda *args: asked.append(args) or root(*args))
    monkeypatch.setattr(_kernels, "snapped_fn",
                        lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(_kernels, "_f_real_scalar",
                        lambda code, r: r == -b and constants.append(code) or F(code, r))
    optimizer.optimize_family_smoothed(name, b, budget=120)
    assert 0 < len(settled) < len(asked)
    assert len(builds) == len(asked)
    if dh.get_case(name).form == "cc":
        assert len(constants) == len(asked)


@pytest.mark.parametrize("name, b", [("sz-lp-principal", 0.05), ("cc-l2-chi2-principal-real", 0.35)])
def test_newton_values_are_the_snapped_values(monkeypatch, name, b):
    # one evaluator serves ITP and the Newton steps: at every point a
    # search's Newton steps visit, h(x, True)'s value has the bits of h(x).
    # At budget 120 the steps visit 136 and 155 points, against 300 or more
    # where every weight is solved, so the search runs at budget 300 (359 and
    # 414 points) to check as many
    visited = _visited(monkeypatch, name, b, 300)
    checked = 0
    for h, x in visited:
        got = h(x, True)
        if got is not None:
            assert got[0].hex() == h(x).hex(), (x, got[0], h(x))
            checked += 1
    assert checked >= 300
