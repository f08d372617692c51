"""Deterministic parameter search for the repulsion and density bounds.

Polynomial cases search the (lambda, J) tuning box by a golden section over
lambda whose objective is the exact J-maximum at that lambda, taken over a
finite candidate set of J (``_j_candidates``): closed forms and crossings,
each scored by one solve.  A closed-form ceiling on that maximum
(``_j_ceiling``: the largest equation root over the J box, with the side
condition ignored) lets the section skip every lambda that cannot change
its outcome, so most lambda it visits cost no candidate score and the
result is the same to the bit.  Each lambda is built once
(``dh._poly_at``), for its ceiling and its J-maximum alike.  Smoothed cases and the density bound search the
substitute weight family (the autocorrelation of the generator
e^{alpha u} (1 + cos(beta u)) on [0, s], over alpha and s at each fixed
beta s / pi in ``PROFILES``) by coordinate descent, a coarse scan plus
golden-section line search per coordinate, restarted from a fixed grid; the
three best starts are each re-descended from their incumbent while that
gains and budget is left.  A family search scores each weight from its
family code, f(0) and, where it reads it, F(0) alone, by one scorer per
weight (``_search_profiles``): its root (``dh._search_root``) or its
density bound from three transform values
(``zero_density.bound_if_admissible``), with no ``TrialFunction``, residual
or error message; only the winner is built as a weight and handed to the
public solver or bound.  A search point is an (alpha, s) tuple, and the
objective takes it with its rival.  A search root stops at h's rounding
floor (a snapped h, ``_kernels.snapped_fn``, which also gives the Newton
step at a point), as it only ranks weights, and is found by Newton steps
from the last root, which hand over to ITP where they fail
(``_kernels.search_root``, which solves any such h); the returned bound,
the winner's cold ``dh.solve_smoothed``, does neither.  Most points of a
search only have to lose one comparison: a seed against the third best seed
so far, a coarse point against the best before it, a golden point against
the point it is compared with.  As h increases in x, the sign of h at the
rival's root tells whether such a weight loses, in one or two transform
passes and no solve, so the smoothed scorer, handed the rival, settles a
strict loser that way (None) and solves only the weights it cannot settle:
about 44 roots for every 120 evaluations on the benchmark's rows.  A
settled point spends its evaluation as a scored one does and is never read
again, so the search takes the same path as when it solves every weight,
but where a root depends on the Newton guess within the snap band.  Every
search starts from the same seeds and scans the same first lines, so most
weights it asks for were built before, by an earlier row or cell: the codes
come from the process-wide build cache, through
``trial_functions._search_code``, which skips the input checks, as the
searches' parameters are finite numbers in their boxes.  No randomness,
fixed iteration counts, lexicographic tie-breaks, so identical specs give
identical results.  Side conditions and solver failures are hard
constraints handled by rejection (score -inf); the optimum may sit on the
feasible boundary, which the in-bracket golden section finds.
"""

import functools
import math
import numbers
from dataclasses import dataclass

from . import _kernels, dh, trial_functions, zero_density
from .errors import HeckeZerosError, InfeasibleSearchError, InvalidParameterError, _shown

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0

#: search boxes
POLY_BOXES = {"lambda": (1e-3, 5.0), "J": (1e-3, 5.0)}
FAMILY_BOXES = {"alpha": (-4.0, 4.0), "s": (0.2, 10.0)}

#: fixed restart grid of the family searches
FAMILY_GRID = {"alpha": (-1.0, 0.0, 1.0), "s": (0.6, 1.2, 2.0, 3.2, 5.0, 8.0)}

#: least gain of a sweep, or of a re-descent, that the family search goes on
#: after
SWEEP_TOL = 1e-6


@dataclass(frozen=True)
class SearchSpec:
    """Target case plus budget for maximize_bound.

    The default budget is also ``optimize_family_smoothed``'s and that of
    ``heckezeros optimize``.
    """

    case: str
    b: float
    max_evals: int = 6000
    phi: float = dh.PHI


def _check_budget(budget):
    """Raise InvalidParameterError unless the budget is a finite number >= 1."""
    if not 1 <= budget < math.inf:   # NaN too, which an infinite budget // 2 is
        raise InvalidParameterError(f"search budget must be a finite number >= 1, got {budget}")


class _Budget:
    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        return self.left >= 0


def _golden_max(fn, lo, hi, budget, coarse=13, bound=None):
    """Deterministic 1-d maximization on [lo, hi] with rejection plateaus.

    A coarse scan of ``coarse`` evenly spaced points, the earlier point
    winning a tie, then a golden section between the best one's neighbours
    until the bracket is below 1e-4 of [lo, hi].  Returns (x, v) of the best
    point evaluated, or (nan, -inf) where no coarse value is finite.
    ``budget`` counts the evaluations of fn.

    fn(x, rival) is the objective at x, where rival is the value x has to
    beat: the best value found before it in the coarse scan, the value it is
    compared with in the section, -inf for the section's first point.  Where
    fn can tell that its value is below rival without forming it, it may
    return -inf in its place: the point loses its comparison as its value
    would, and that value is never read again, so (x, v) and the budget spent
    are those of an fn that always forms its value, whether or not the budget
    runs out.

    ``bound`` is an optional ceiling, bound(x) >= fn(x), that spares the
    evaluations that cannot change the result; a spared point spends no
    budget.  The coarse scan takes its points in decreasing order of the
    ceiling (by position on a tie) and stops at the first one whose ceiling
    is below the best value found: the points it skips can only lose, and
    count as -inf.  A golden step evaluates its new point only where the
    ceiling is not below the value it is compared with; where it is, the
    point loses that comparison, and the ceiling stands in for its value,
    which is never read again.  So where the budget does not run out,
    (x, v) are those of the same search without a bound.
    """
    xs = [lo + (hi - lo) * i / (coarse - 1) for i in range(coarse)]
    ceil = [math.inf] * coarse if bound is None else [bound(x) for x in xs]
    vals = [-math.inf] * coarse
    top = -math.inf
    # highest ceiling first; a stable sort keeps ties, and every point
    # without a bound, in order
    for i in sorted(range(coarse), key=ceil.__getitem__, reverse=True):
        if ceil[i] < top or not budget.spend():
            break
        vals[i] = v = fn(xs[i], top)
        if v > top:
            top = v
    k = max(range(coarse), key=vals.__getitem__)
    best_x, best_v = xs[k], vals[k]
    if not math.isfinite(best_v):
        return math.nan, -math.inf

    def value(x, rival):   # fn(x, rival), or a ceiling below rival
        if bound is not None:
            u = bound(x)
            if u < rival:
                return u
        return fn(x, rival) if budget.spend() else -math.inf

    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse - 1)]
    xtol = (hi - lo) * 1e-4
    x1 = b - _INV_GOLD * (b - a)
    x2 = a + _INV_GOLD * (b - a)
    f1 = fn(x1, -math.inf) if budget.spend() else -math.inf
    f2 = value(x2, f1)
    while b - a > xtol and budget.left > 0:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLD * (b - a)
            f2 = value(x2, f1)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLD * (b - a)
            f1 = value(x1, f2)
        for x, v in ((x1, f1), (x2, f2)):
            if v > best_v:
                best_x, best_v = x, v
    return best_x, best_v


def _coordinate_descent(objective, boxes, start, budget, max_sweeps=10):
    """Maximize over the box from one start; returns (point, value).

    Points are tuples of coordinates, one per (lo, hi) of ``boxes``.
    ``objective(point, rival)`` is the objective at point, or -inf where it
    can tell that value is below rival (``_golden_max``'s fn).  After the
    first sweep each line search shrinks to a window around the incumbent,
    a quarter of the previous one (at least 1e-4 of the box).  Stops after a
    sweep that gains less than ``SWEEP_TOL``, after ``max_sweeps`` sweeps,
    or where the budget runs out.
    """
    point = start
    best = objective(point, -math.inf)
    budget.spend()
    window = [hi - lo for lo, hi in boxes]
    for sweep in range(max_sweeps):
        improved = 0.0
        for i, (lo_box, hi_box) in enumerate(boxes):
            if sweep == 0:
                lo, hi = lo_box, hi_box
            else:
                half = 0.5 * window[i]
                lo = max(lo_box, point[i] - half)
                hi = min(hi_box, point[i] + half)

            def line(x, rival, _i=i):
                return objective(point[:_i] + (x,) + point[_i + 1:], rival)

            x, v = _golden_max(line, lo, hi, budget)
            if math.isfinite(v) and v > best:
                improved = max(improved, v - best)
                best = v
                point = point[:i] + (x,) + point[i + 1:]
            window[i] = max((hi - lo) * 0.25, 1e-4 * (hi_box - lo_box))
            if budget.left <= 0:
                return point, best
        if improved < SWEEP_TOL:
            break
    return point, best


def _run_restarts(objective, boxes, seeds, budget_n):
    """Score the seeds, descend from the best three and re-descend each from
    its incumbent; returns (point, value) of the best, or (None, -inf).

    ``objective``, ``boxes`` and the seed points are ``_coordinate_descent``'s.
    Only the three best seeds are descended, so a seed's rival is the third
    best seed value so far: one that loses to it is never descended,
    whatever it scores.  A tie goes to the lower point, coordinate by
    coordinate.
    """
    budget = _Budget(budget_n)
    scored = []
    top3 = [-math.inf] * 3   # the three best seed values so far, increasing
    for seed in seeds:
        if not budget.spend():
            break
        v = objective(seed, top3[0])
        if v > top3[0]:
            top3 = sorted((v, top3[1], top3[2]))
        scored.append((v, seed))
    scored.sort(key=lambda t: (-(t[0] if math.isfinite(t[0]) else -math.inf), t[1]))
    results = []
    for rank, (v0, seed) in enumerate(scored):
        if rank >= 3 or budget.left <= 0:
            break
        if not math.isfinite(v0) and rank > 0:
            continue
        point, value = _coordinate_descent(objective, boxes, seed, budget)
        # re-descend from the incumbent while it gains: the first sweep scans
        # the whole box again, along lines through a point the first descent
        # never started from, so it can reach a peak that descent missed.  At
        # optimize's default budget of 6000 this lifts sz-lp-principal at
        # b = 1e-3 from 6.864062 (descent alone) to 6.873875
        for _ in range(3):
            if not math.isfinite(value) or budget.left <= 0:
                break
            point, v = _coordinate_descent(objective, boxes, point, budget, max_sweeps=3)
            if v <= value + SWEEP_TOL:
                value = max(value, v)
                break
            value = v
        results.append((point, value))
    results = [(p, v) for p, v in results if math.isfinite(v)]
    if not results:
        return None, -math.inf
    results.sort(key=lambda pv: (-pv[1], pv[0]))
    return results[0]


def _j_box(case):
    """(lo, hi) of the J box of a poly case, which starts at its j_min."""
    return max(POLY_BOXES["J"][0], case.j_min), POLY_BOXES["J"][1]


def _j_candidates(case, lam, at):
    """The J where min(root, side limit) can peak at fixed lambda, with limits.

    ``at`` is the lambda's one build, ``dh._poly_at``'s.  Between the box
    ends and the J inside the box where the root is stationary (from ``at``)
    or the side limit peaks or troughs (the case's side-condition statement's
    ``turns`` of ``at``'s rests), both the root
    and the limit are monotone in J, so their minimum peaks at a box end,
    where the two cross, at a stationary point of the root where the side
    condition is slack, or at a peak of the limit where it binds.  A trough
    of the limit is never such a peak.  The sign of h at the side limit tells
    slack from binding, and a crossing is a sign change of it, bisected on
    its piece without a root solve, from the values at the piece's ends that
    it already has.  Returns (uncapped side limit, J) pairs, highest first.
    """
    g, _, stationary, side_x, rests = at
    j_lo, j_hi = _j_box(case)

    def gap(J):   # h at the side limit: > 0 where the root lies below it
        return g(J, lam / (lam + side_x(J)))

    ends = [j_lo, j_hi]
    stationary, peaks, troughs = ([J for J in Js if j_lo < J < j_hi]
                                  for Js in (stationary, *case._sides.turns(rests)))
    turns = sorted({*ends, *stationary, *peaks, *troughs})
    gaps = [gap(J) for J in turns]
    candidates = [J for J, g in zip(turns, gaps)
                  if J in ends or (J in stationary and g >= 0.0)
                  or (J in peaks and g <= 0.0)]
    for lo, hi, g_lo, g_hi in zip(turns, turns[1:], gaps, gaps[1:]):
        if g_lo * g_hi < 0.0:
            sign = 1.0 if g_lo < 0.0 else -1.0
            candidates.append(_kernels._bisect(lambda J: sign * gap(J), lo, hi,
                                               sign * g_lo, sign * g_hi)[0])
    return sorted(((side_x(J), J) for J in candidates), key=lambda t: -t[0])


def _j_ceiling(case, lam, at):
    """A ceiling on the J-maximum at fixed lambda, in closed form: the largest
    equation root over the J box, with the side condition ignored.

    ``at`` is ``dh._poly_at``'s build of the lambda.  Each candidate's value
    min(root, side limit) is at most its root.  The root solves
    P(lam/(lam+x)) = target(J) (``_kernels.poly_fn``, whose g is a positive
    multiple of target - P(u)), so it falls as the target rises: the largest
    is x at the smallest target, at a box end or a stationary J inside the
    box, between which the root is monotone.  It is 0 where that target is
    at least P(1) (``_kernels.P1``; no J has a root above 0), and the
    bracket top ``dh.POLY_HI`` of every root where it lies below P there.
    The ceiling is raised by 1e-12 of lam + x: the root lam/u - lam rounds
    by a few ulps of lam + x, so no candidate J, however its value rounds,
    scores above the ceiling.  It is +inf where a target is NaN.
    """
    _, target, stationary, _, _ = at
    j_lo, j_hi = _j_box(case)
    targets = [target(J) for J in (j_lo, j_hi, *stationary) if j_lo <= J <= j_hi]
    if any(map(math.isnan, targets)):
        return math.inf
    t = min(targets)
    if t >= _kernels.P1:
        x = 0.0
    elif t <= _kernels._p4(lam / (lam + dh.POLY_HI)):
        x = dh.POLY_HI
    else:
        x = lam / _kernels._p4_newton(t, 1.0) - lam
    return x + 1e-12 * (lam + x)


# ---------------------------------------------------------------------------
# public searches
# ---------------------------------------------------------------------------

def maximize_bound(spec):
    """Best repulsion bound for the spec's case at its width hypothesis.

    Polynomial cases tune (lambda, J) by a golden section over lambda of the
    J-maximum at each lambda, which the finite candidate set of
    ``_j_candidates`` gives exactly.  Each lambda the section reads is built
    once (``dh._poly_at``, kept for the call), and its ceiling and its
    J-maximum both read that build.  The section reads the ceiling
    ``_j_ceiling`` first (``_golden_max``'s ``bound``): a coarse point whose
    ceiling is below the best value found, and a golden point whose ceiling
    is below the value it is compared with, is not scored at all.  Such a
    lambda cannot win, so where the budget does not run out the result is
    that of the search without the ceiling, to the bit; the earlier lambda
    of the coarse scan still wins a tie.  The budget counts the candidates
    scored, and a pruned lambda spends none of it.  A candidate scores its bound (``dh._poly_bound``),
    with no checks, residual or error message; only the winner is solved by
    ``dh.solve_poly``, for its result.  Plain coordinate descent stalls on
    these landscapes: at the constrained optima the equation root meets the
    side-condition limit along a curve in (lambda, J), and every point of
    that curve is a coordinatewise local maximum.  Smoothed cases tune the
    substitute weight family by coordinate descent and re-descent.  Raises
    InvalidParameterError for a negative or non-finite width or phi, a
    budget that is not a finite number >= 1, or (polynomial cases) a width
    whose (lambda + b)^4 overflows at the top of the lambda box, before any
    evaluation, and InfeasibleSearchError when nothing admissible was found
    within budget.
    """
    case = dh.get_case(spec.case)
    dh.check_width(spec.b, spec.phi)
    _check_budget(spec.max_evals)
    if case.method == "poly":
        dh.check_quartic(POLY_BOXES["lambda"][1], spec.b)
        budget = _Budget(spec.max_evals)
        b = float(spec.b)   # as solve_poly reads it
        best_j = {}   # lambda -> the first candidate J that scores its maximum

        @functools.cache
        def build(lam):
            return dh._poly_at(case, b, lam, spec.phi)

        def inner(lam, rival):   # rival unused: the ceiling spares the losers
            v_lam = -math.inf
            if budget.left <= 0:
                return v_lam
            at = build(lam)
            for limit, J in _j_candidates(case, lam, at):
                # v <= limit: no later candidate can beat v_lam
                if limit <= v_lam or not budget.spend():
                    break
                v = dh._poly_bound(at, lam, J)[0]
                if v > v_lam:   # False for NaN
                    v_lam, best_j[lam] = v, J
            return v_lam

        # the budget counts candidate scores only, so the lambda section is
        # bounded by its tolerance alone
        lam_opt, v = _golden_max(inner, *POLY_BOXES["lambda"], _Budget(math.inf),
                                 coarse=25,
                                 bound=lambda lam: _j_ceiling(case, lam, build(lam)))
        if not math.isfinite(v):
            raise InfeasibleSearchError(
                f"no feasible (lambda, J) for {case.name} at b={spec.b}")
        return dh.solve_poly(case, spec.b, lam_opt, best_j[lam_opt], phi=spec.phi)

    res = optimize_family_smoothed(case, spec.b, budget=spec.max_evals, phi=spec.phi)
    if res is None:
        raise InfeasibleSearchError(
            f"no admissible substitute weight for {case.name} at b={spec.b}")
    return res


#: cosine multipliers beta * s / pi of the substitute generator
#: e^{alpha u} (1 + cos(beta u)); over every bundled smoothed row and every T1
#: cell these two are the only profiles that win
PROFILES = (1.0, 0.5)


def _generator(alpha, s, mult):
    """(alpha, c0, c1, beta, s) of the substitute generator at (alpha, s) of
    the profile beta s / pi = mult."""
    return alpha, 1.0, 1.0, mult * math.pi / s, s


def _search_profiles(score, boxes, seeds, budget):
    """Maximize ``score(code, f0, params, rival)`` over (alpha, s) for each
    profile, where ``params`` are the weight's five generator parameters.

    ``boxes`` are the (lo, hi) of alpha and s, and the seeds (alpha, s)
    tuples (``_coordinate_descent``'s points).  Each profile gets
    ``budget // len(PROFILES)`` evaluations, at least 40, so any budget
    below 80 runs about 80.  The floor stays: without it a T1 cell's budget
    of 60 would give each profile 30 evaluations and worse bounds.  The
    earlier profile wins a tie.  A weight is scored from its family code and
    f(0) (``trial_functions._search_code``, the cached build without input
    checks: the generator's parameters are finite numbers in the box), and
    a score that reads F(0) reads it from the memo,
    ``trial_functions._search_f0(*params)``: one that never does forms no
    F(0).  A weight that cannot be built counts as -inf, and the score
    returns -inf for one that bounds nothing.

    ``rival`` is the value the point has to beat (a seed the third best seed
    so far, a line search's point the value it is compared with,
    ``_golden_max``), or -inf.  The score may return None where it has
    settled that its value lies below rival without forming it: the point
    counts as -inf, spending its evaluation all the same, and loses its
    comparison as its value would.  So the search visits the same points,
    spends the same evaluations and returns the same weight as with a score
    that forms every value, up to how the scores depend on the order they
    are taken in.

    Returns (weight, mult) of the best profile, the winner built as a
    ``TrialFunction``, or None when no weight in the box scores finite.
    Each profile keeps every score it formed (``seen``), so a point the
    search visits again costs nothing, and a settled point, which is not
    kept, costs its score again; a point new to this search but built
    before in the process costs a score and no build, as ``_search_code``
    memoizes builds process-wide.
    """
    per_profile = max(budget // len(PROFILES), 40)
    best = None
    for mult in PROFILES:
        seen = {}

        def objective(point, rival, _mult=mult, _seen=seen):
            if point not in _seen:
                params = _generator(*point, _mult)
                try:
                    code, f0 = trial_functions._search_code(*params)
                except HeckeZerosError:
                    _seen[point] = -math.inf
                else:
                    v = score(code, f0, params, rival)
                    if v is None:
                        return -math.inf
                    _seen[point] = v
            return _seen[point]

        point, value = _run_restarts(objective, boxes, seeds, per_profile)
        if point is not None and (best is None or value > best[0]):
            best = (value, point, mult)
    if best is None:
        return None
    _, point, mult = best
    return trial_functions.autocorrelation(*_generator(*point, mult)), mult


def optimize_family_smoothed(case, b, budget=SearchSpec.max_evals, seed_params=None,
                             phi=dh.PHI):
    """Optimize the substitute family for one smoothed case and width.

    Runs an (alpha, s) search for each profile and keeps the best; returns a
    BoundResult or None when no weight in the box yields a bound.
    ``seed_params`` (alpha and s) warm-starts every profile, which is useful
    along a table, where optima drift slowly; it must lie in
    ``FAMILY_BOXES``, where every weight has a finite F(-``dh.HI``) on its
    bracket [0, ``dh.HI``].  Each profile
    spends at least 40 evaluations (``_search_profiles``), so a budget below
    80 makes about 80.  Each weight is scored by one call,
    ``dh._search_root``, on the snapped h (``_kernels.snapped_fn``), built
    once.  A weight that only has to lose one comparison is settled, where
    it loses, by the sign of h at its rival's root: h increases in x, so
    h(rival) > 0 puts its root below the rival, in one or two transform
    passes, and a 'cc' weight with h(0) > 0 bounds nothing, from the two
    transform values of h's constant.  At the benchmark's rows that leaves
    about 44 root solves for 120 evaluations, against 116 where each weight
    is solved.  Where the sign cannot tell, or the weight must be ranked,
    the call solves its root (``_kernels.search_root``), which stops at h's
    rounding floor instead of adjacent floats, by Newton steps from the
    last root solved (a settled weight has none), which h gives from the
    derivative kernel, with the weight's F(0) from the memo; an 'sz' weight
    that bounds nothing typically scores -inf from h and h' at the guess
    and h(0), which takes F(b) alone.
    Only the winner is solved by ``dh.solve_smoothed``, on the exact h, for
    its residual and result, so the returned bound resolves to adjacent
    floats.
    Inputs are checked as in ``maximize_bound``, and a case that is not
    smoothed, or a seed that lacks alpha or s or whose alpha or s is not a
    real number (``numbers.Real``, not a bool) in ``FAMILY_BOXES``, raises
    InvalidParameterError before any evaluation; the seed enters the search
    as floats.
    """
    case = dh._check_smoothed(case, b, phi)
    _check_budget(budget)
    seeds = [(a, s_) for a in FAMILY_GRID["alpha"] for s_ in FAMILY_GRID["s"]]
    if seed_params is not None:
        missing = [n for n in ("alpha", "s") if n not in seed_params]
        if missing:
            raise InvalidParameterError(f"seed_params must give alpha and s; missing {missing}")
        for n in ("alpha", "s"):
            v, (lo, hi) = seed_params[n], FAMILY_BOXES[n]
            if not (isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and lo <= v <= hi):
                raise InvalidParameterError(
                    f"seed {n} must be a number in [{lo}, {hi}], got {_shown(v)}")
        seeds = [(float(seed_params["alpha"]), float(seed_params["s"]))] + seeds
    # each solve takes Newton steps from the latest root solved, as the search
    # scores nearby weights one after another.  A root then depends on that
    # guess, and on the snap, within float noise, so a weight is solved once
    # per search (each profile's objective keeps its scores) and scores the
    # same every time, and the winner is solved again without a guess or a
    # snap: the result is its cold root, what ``dh.solve_smoothed`` gives for
    # that weight anywhere, as at the first solve of a search seeded there
    last = None
    b = float(b)   # as solve_smoothed reads it

    def score(code, f0, params, rival):
        nonlocal last
        root = dh._search_root(case, code, f0, trial_functions._search_f0(*params), b, phi,
                               last, rival)
        if root is None:
            return None
        if math.isnan(root):
            return -math.inf
        last = root
        return root

    found = _search_profiles(score, (FAMILY_BOXES["alpha"], FAMILY_BOXES["s"]), seeds,
                             budget)
    if found is None:
        return None
    f, mult = found
    res = dh.solve_smoothed(case, f, b, phi=phi)
    res.params["profile_c1"] = 1.0
    res.params["profile_mult"] = mult
    return res


#: weights the density search scores, the default of ``optimize_zd``
ZD_BUDGET = 300


def optimize_zd(lam, b=0.0, vartheta=zero_density.VARTHETA, phi=dh.PHI, budget=ZD_BUDGET):
    """Smallest density bound over the substitute family at (lambda, b).

    Returns (integer bound or inf, params).  The support seed follows the
    tuning recipe (scale 2 theta-hat / lambda) before the descent refines it.
    Each profile scores at least 40 weights (``_search_profiles``), so a
    budget below 80 makes about 80 evaluations.  A weight scores minus its
    bound from f(0), F(-b) and F(lambda - b) by the scalar kernel
    (``zero_density.bound_if_admissible``); F(-b) at b = 0 is F(0) from the
    memo, and at b > 0 no F(0) is formed.  Only the winner's bound comes
    from ``zero_density.n_lambda_bound``.  Inadmissible inputs and a budget
    that is not a finite number >= 1 raise InvalidParameterError before any
    evaluation.
    """
    zero_density.check_inputs(lam, b, vartheta, phi)
    _check_budget(budget)
    boxes = (FAMILY_BOXES["alpha"], (0.2, 40.0))
    theta = zero_density.recipe_theta(lam, b)
    seed_s = min(max(2.0 * theta / lam, 1.0), boxes[1][1]) if lam > 0 else 5.0
    seeds = [(0.0, seed_s)] + [(a, s_) for a in (-0.5, 0.0)
                               for s_ in (3.0, 6.0, 10.0, 18.0, 30.0)]
    # the points F(-b) and F(lambda - b) as ``TrialFunction.laplace_real``
    # passes them to the kernel
    r_minus_b, r_gap = float(-b), float(lam - b)

    def score(code, f0, params, rival):   # rival unused: every weight is scored
        # at b = 0, F(-b) is F(-0.0), which has the bits of F(0)
        if r_minus_b == 0.0:
            Fmb = trial_functions._search_f0(*params)
        else:
            Fmb = _kernels.f_real_scalar(code, r_minus_b)
        bound = zero_density.bound_if_admissible(
            f0, Fmb, _kernels.f_real_scalar(code, r_gap), vartheta, phi)
        return -math.inf if bound is None else -bound

    found = _search_profiles(score, boxes, seeds, budget)
    if found is None:
        return math.inf, {}
    f, mult = found
    bound = zero_density.n_lambda_bound(zero_density.ZdQuery(f, lam, b, vartheta, phi))
    return zero_density.int_bound(bound), {"alpha": f.params["alpha"],
                                           "s": f.params["s"], "c1": 1.0,
                                           "beta_mult": mult, "bound": bound}
