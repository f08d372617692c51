"""Zero-repulsion solvers: how far the other zeros sit from an exceptional one.

Every configuration of worst character / worst zero (real vs complex,
principal vs not, second zero of the same character vs worst zero of the next
character) reduces to one of two one-dimensional root problems:

* smoothed form, driven by a trial weight f with transform F:
      h(x) = c1 (F(-x) - F(b-x)) - F(0) + psi f(0)          ("sz")
      h(x) = F(-b) - F(0) - F(x-b) + psi f(0)               ("cc")
* quartic-polynomial form in tuning parameters (lambda, J), where the known
  width bound b sits either on the (J^2 + 1/2) term or on the 2J term and the
  unknown on the other, plus quartic side conditions that certify the
  discarded complex-zero terms were non-negative.

Each case record below wires one lemma variant: its psi multiple of the
critical-strip constant phi, the multiplier c1, which slot carries the
unknown, and which side-condition coefficient formula applies.  The case
table is data so the wiring can be audited line by line.  A poly case's
side conditions are stated once, from its record (``_SideConditions``): their
coefficients j0 and j1, the margin at a width, the limit in x, its turns in J
and the J where it can reach a width all read that statement.

A smoothed root has two callers, each with its own path.
``solve_smoothed``, behind every returned bound, solves the exact h by ITP,
so its roots resolve to adjacent floats, and adds the failure reports, the
residual and the ``BoundResult``.  ``_search_root``, the family search's
one scorer of a weight, builds a snapped h (``_kernels.snapped_fn``),
whose root stops at h's rounding floor and which gives its Newton step
too, with the weight's F(0) from the search's memo
(``trial_functions._search_f0``) and no overflow probe.  Where h is
positive at the root of the weight's rival, the weight loses with no solve
(None); otherwise ``_kernels.search_root`` solves h by Newton steps from
the last root, handed to ITP where they fail, and returns the root alone.
``solve_poly`` is one over ``_poly_bound``, the bound alone, which the
quartic search calls for every candidate J with the constants of its
lambda built once (``_poly_at``, handed the side-condition statement's
limit at that lambda).

Statements whose raw form carries oscillatory terms Re F(. + i mu) are used
here only through their reduced real forms (``trial_functions.repel_reduce``);
the unreduced transforms remain available via ``TrialFunction.laplace``.

All bounds hold up to an arbitrarily small epsilon coming from the asymptotic
regime (conductor-discriminant quantity sufficiently large); the solvers
report the exact root, and the asserted bound is root - epsilon.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (DomainError, InvalidParameterError, NoBoundError,
                     SideConditionError, _shown, checked_divisor, checked_power, no_bound,
                     nonnegative, positive, real)

#: Critical-strip growth constant; the convexity bound fixes it at 1/4.
PHI = 0.25

#: right end of the smoothed solves' bracket [0, HI]
HI = 60.0

#: right end of the quartic solves' bracket [0, POLY_HI]
POLY_HI = 1e3


@dataclass(frozen=True)
class SolverCase:
    """One lemma variant of the repulsion machinery."""

    name: str
    method: str                 # 'smoothed' | 'poly'
    psi_over_phi: float
    description: str
    c1: int = 1                 # multiplier on the F-difference (smoothed)
    form: str = "sz"            # smoothed h shape: 'sz' | 'cc'
    unknown_slot: str = ""      # poly: 'known-on-square' | 'known-on-linear'
    j0: str = ""                # poly side-condition coefficient: 'sz' | 'cc'
    extra_j1: bool = False      # poly: second side condition with J1 = 4J/(J^2+1)
    j_min: float = 0.0

    # a poly case's side conditions, built on first read
    _sides = functools.cached_property(lambda self: _SideConditions(self))


CASES = {c.name: c for c in (
    # -- smoothed, worst character and worst zero real -----------------------
    SolverCase("sz-lp-quadratic", "smoothed", 4.0,
               "second zero of a quadratic worst character", c1=2),
    SolverCase("sz-lp-principal", "smoothed", 2.0,
               "second zero, worst character principal", c1=2),
    SolverCase("sz-l2-nonprincipal", "smoothed", 4.0,
               "second-worst character's zero, both characters non-principal", c1=1),
    SolverCase("sz-l2-chi1-principal", "smoothed", 2.0,
               "second-worst character's zero, worst character principal", c1=1),
    SolverCase("sz-l2-chi2-principal", "smoothed", 4.0,
               "second-worst character's zero, that character principal", c1=2),
    # -- smoothed, complex case ----------------------------------------------
    SolverCase("cc-lp-principal-real", "smoothed", 2.0,
               "second zero real, worst character principal with complex worst zero",
               c1=2),
    SolverCase("cc-l2-nonprincipal", "smoothed", 4.0,
               "second-worst character's zero, complex case, both non-principal",
               c1=1, form="cc"),
    SolverCase("cc-l2-chi2-principal-real", "smoothed", 2.0,
               "second-worst character's zero real, that character principal, complex case",
               c1=1, form="cc"),
    # -- polynomial, worst character and worst zero real ---------------------
    SolverCase("sz-lp-quadratic-medium", "poly", 2.0,
               "second zero complex, quadratic worst character, medium widths",
               unknown_slot="known-on-square", j0="sz"),
    SolverCase("sz-lp-principal-medium", "poly", 1.0,
               "second zero complex, worst character principal, medium widths",
               unknown_slot="known-on-square", j0="sz"),
    SolverCase("sz-l2-chi2-principal-medium", "poly", 2.0,
               "second-worst character's complex zero, that character principal",
               unknown_slot="known-on-square", j0="sz"),
    # -- polynomial, complex case --------------------------------------------
    SolverCase("cc-lp-nonprincipal", "poly", 2.0,
               "second zero, complex case, worst character non-principal",
               unknown_slot="known-on-linear", j0="cc", j_min=0.25),
    SolverCase("cc-lp-principal", "poly", 2.0,
               "second zero complex, worst character principal, complex case",
               unknown_slot="known-on-square", j0="cc", extra_j1=True),
    SolverCase("cc-l2-chi1-principal", "poly", 2.0,
               "second-worst character's zero, complex case, worst character principal",
               unknown_slot="known-on-linear", j0="cc"),
    SolverCase("cc-l2-chi2-principal-complex", "poly", 2.0,
               "second-worst character's complex zero, that character principal, complex case",
               unknown_slot="known-on-square", j0="cc"),
)}

POLY_CASES = tuple(n for n, c in CASES.items() if c.method == "poly")


@dataclass(frozen=True)
class BoundResult:
    """A solved repulsion bound lambda* for the hypothesis 'width >= b'.

    ``lambda_star`` is a valid bound up to float rounding: when the quartic
    side condition fails at the equation root, the result is capped at the
    largest point where it still holds (the corollaries only require some
    point satisfying both), ``side_limited`` is set (an ulp comparison of
    root and limit), and ``root`` keeps the uncapped value.
    ``residual`` is |h| at the root relative to the evaluated terms' size.
    """

    case: str
    b: float
    lambda_star: float
    params: dict
    side_ok: bool
    residual: float
    side_limited: bool = False
    root: float = math.nan
    side_margin: float = math.nan


def get_case(case):
    """The SolverCase of ``case``, a name or a record."""
    if isinstance(case, SolverCase):
        return case
    if isinstance(case, str) and case in CASES:   # a list would raise TypeError here
        return CASES[case]
    raise InvalidParameterError(f"unknown solver case {case!r}; available: {sorted(CASES)}")


def check_quartic(lam, b, J=0.0):
    """Raise InvalidParameterError, naming the arguments, where a power of the
    quartic method leaves the float range: Python's float ** raises where *
    gives inf, past about 1.2e77 for (lam + b)^4 and 1.3e154 for (J + 1)^2,
    and 1/lam^4 divides by zero where lam^4 underflows to 0."""
    for name, base, power in (("lambda + b", lam + b, 4), ("J + 1", J + 1.0, 2)):
        checked_power(name, float(base), power)
    checked_divisor("lambda", float(lam), 4)


def check_width(b, phi):
    """Raise InvalidParameterError unless b and phi are finite and >= 0.

    The solvers and the searches over them check these before any work.
    """
    nonnegative("b", b)
    # a negative phi would flip the sign of the phi term of every inequality,
    # and with it the bound; phi = 0 drops the term
    nonnegative("phi", phi)


# ---------------------------------------------------------------------------
# smoothed solver
# ---------------------------------------------------------------------------

def _check_smoothed(case, b, phi):
    """The smoothed SolverCase of ``case``, a name or a record; raises
    InvalidParameterError unless it is smoothed and b, phi are finite and
    >= 0 (``check_width``)."""
    case = get_case(case)
    if case.method != "smoothed":
        raise InvalidParameterError(f"case {case.name} is not a smoothed case")
    check_width(b, phi)
    return case


def smoothed_h(case, f, b, phi=PHI):
    """The case's monotone bracketing function, vectorized over x; inputs
    are checked as in ``solve_smoothed``.

    It uses only the array path of ``f.laplace``, never the solver's scalar
    kernel, so the scan oracle that checks the solver stays independent.
    h's transform constants, F(0) and for 'cc' F(-b), come from one call of
    the array path, each with the bits of a call at its point alone (the
    array transform is elementwise); each h(x) then takes one call ('cc'
    reads F(x - b)) or two ('sz': F(-x) and F(b - x)).
    """
    case = _check_smoothed(case, b, phi)

    def F(r):   # through a 1-d array even for a scalar r
        r = np.asarray(r, dtype=float)
        return f.laplace(r.reshape(-1)).real.reshape(r.shape)
    return _kernels.smoothed_fn(F, case.form, case.c1, case.psi_over_phi * phi, b, f.f0,
                                array=True)


def _search_root(case, code, f0, F0, b, phi, guess, rival):
    """The family search's score of a coded weight for a smoothed case: the
    root of its h on [0, HI] (``_kernels.search_root``'s), NaN where the
    weight bounds nothing, or None where the root is settled below rival.

    ``code`` is the weight's family code, f0 = f(0) its build's and F0 = F(0)
    the search's memo's (``trial_functions._search_f0``); ``case`` is a
    smoothed SolverCase, and b, phi are checked.  h is
    ``_kernels.snapped_fn``'s, built once, 0.0 below its rounding floor, so
    the root stops where the sign of h turns to rounding noise instead of at
    adjacent floats: it only ranks weights.  h increases in x.  A 'cc' h
    that is positive at 0, read from its constant F(-b), bounds nothing: NaN
    with no solve.  Where rival, the root the weight has to beat, is finite,
    a value h(rival) > 0 puts the root below it: None, in one transform
    pass ('cc': F(rival - b)) or two ('sz': F(-rival) and F(b - rival)) and
    no slope; a snapped zero or a negative or NaN value settles nothing.
    Otherwise the root is solved: from a guess (the search's last root) by
    Newton steps on h's derivative mode, and ITP on the bracket they have
    seen where that declines; with no guess by ITP on [0, HI].  The bracket
    is never shrunk: every weight of the search's box has a finite F(-HI).
    The 'sz' h(0) costs a transform, F(b), so the solve finds out there only
    if its steps head past 0.
    """
    h = _kernels.snapped_fn(code, case.form, float(case.c1), case.psi_over_phi * phi,
                            b, f0, F0)
    if case.form == "cc" and h(0.0) > 0.0:
        return math.nan
    if rival > -math.inf and h(rival) > 0.0:
        return None
    return _kernels.search_root(h, HI, guess)


def solve_smoothed(case, f, b, phi=PHI):
    """Root of the smoothed repulsion function; the bound is root - epsilon.

    Brackets on [0, HI]: h is increasing on the whole line, and near the ends
    of the bound tables the provable bound sits barely above (or, for a
    slightly weaker weight, below) the width hypothesis itself.  The 'sz'
    bracket is halved while F(-HI) is infinite, which makes h(HI) infinite
    (or NaN as inf - inf); the 'cc' shape reads F at x - b >= -b only, where
    a smaller bracket cannot help.  The root is ITP's on the exact h
    (``_kernels.smoothed_fn``).  When h never changes sign the failure mode
    matters: staying positive means no repulsion is provable with this
    weight, staying negative means the inequality degenerates (possible for
    the 'cc' shape when F(-b) - F(0) + psi f(0) <= 0, a regime the source
    lemmas do not address); both raise NoBoundError with the sign recorded.
    An h that is 0 at both ends (the 'sz' shape at b = 0 when
    F(0) = psi f(0)) or NaN at an end bounds nothing either and raises
    NoBoundError with sign None.  ``errors.no_bound`` words each report.
    The family search scores its weights by ``_search_root`` instead.
    """
    case = _check_smoothed(case, b, phi)
    F = f.laplace_real
    b = float(b)
    hi = HI
    if case.form == "sz":
        while hi > 1.0 and math.isinf(F(-hi)):
            hi = 0.5 * hi
    h = _kernels.smoothed_fn(F, case.form, float(case.c1), case.psi_over_phi * phi, b, f.f0)
    root, hlo, hhi = _kernels.smoothed_root(h, 0.0, hi)
    if math.isnan(root) or hlo == 0.0 and hhi == 0.0:
        raise no_bound(case.name, hi, repr(f), hlo, hhi)
    # residual is measured relative to the transform terms h evaluates at the
    # root: at tiny widths they reach e^{x0 x} ~ 1e10 and an absolute figure
    # would only report float cancellation noise, not root quality
    if case.form == "sz":
        scale = 1.0 + abs(F(-root)) + abs(F(b - root))
    else:
        scale = 1.0 + abs(F(-b)) + abs(F(0.0)) + abs(F(root - b))
    residual = abs(h(root)) / scale
    params = {"family": f.family, **f.params}
    return BoundResult(case.name, b, float(root), params, True, residual,
                       root=float(root))


# ---------------------------------------------------------------------------
# polynomial solver
# ---------------------------------------------------------------------------

def _check_poly(case, b, lam, J, phi=PHI):
    """The poly SolverCase of ``case``, a name or a record; raises
    InvalidParameterError for any other case, and naming the argument unless
    b, phi >= 0, lambda, J > 0 and J >= j_min are finite and the quartic
    powers (``check_quartic``) stay in the float range."""
    case = get_case(case)
    if case.method != "poly":
        raise InvalidParameterError(f"case {case.name} is not a polynomial case")
    check_width(b, phi)
    positive("lambda", lam)
    positive("J", J)
    if J < case.j_min:
        raise InvalidParameterError(f"case {case.name} requires J >= {case.j_min}, got {J}")
    check_quartic(lam, b, J)
    return case


def poly_h(case, b, lam, J, phi=PHI):
    """The case's monotone bracketing function, vectorized over x; inputs
    are checked as in ``solve_poly``."""
    case = _check_poly(case, b, lam, J, phi)
    g = _poly_at(case, b, lam, phi, case._sides.at(b, lam))[0]

    def h(x):
        return g(J, lam / (lam + np.asarray(x, dtype=float)))
    return h


class _SideConditions:
    """The quartic side conditions of a poly case, stated once from its
    ``SolverCase`` record (``SolverCase._sides``).

    The unknown complex-zero terms may be dropped at the unknown width x
    where every condition
        j(J)/(lam + v_2J)^4 + k/(lam + v_sq)^4 > 1/lam^4
    holds: (j, k) = (j0, 1), and for extra_j1 also (j1, 2), with
    j0 = min(c J + d/J, 4 J), (c, d) by the case's j0 form, and
    j1 = 4J/(J^2 + 1).  ``slot`` 0 (``_kernels.poly_fn``'s) puts the known
    width b on the square slot and x on the 2J slot, so a condition's
    coefficient of the unknown width's term is j(J) and of the known's k;
    slot 1 puts them the other way round.  ``margin`` is the conditions'
    smallest slack at x, ``at`` their limit in x, ``turns`` its turns in J
    and ``reach`` the J where it can reach a width; ``_poly_at``,
    ``solve_poly`` and the quartic search read the conditions from here
    alone.
    """

    def __init__(self, case):
        self.slot = 0 if case.unknown_slot == "known-on-square" else 1
        self.c, self.d = {"sz": (0.5, 0.5), "cc": (1.0, 0.75)}[case.j0]
        self.conditions = ((self.j0, 1.0), (self.j1, 2.0))[:1 + case.extra_j1]

    def j0(self, J):
        return min(self.c * J + self.d / J, 4.0 * J)

    @staticmethod
    def j1(J):
        return 4.0 * J / (J * J + 1.0)

    def margin(self, b, lam, J, x):
        """The smallest slack across the conditions at width x."""
        v_2J, v_sq = (x, b) if self.slot == 0 else (b, x)
        return min(j(J) / (lam + v_2J) ** 4 + k / (lam + v_sq) ** 4 - 1.0 / lam ** 4
                   for j, k in self.conditions)

    # 1/lam^4 less a known term coef/(lam + b)^4, and the x where an x term
    # coef_x/(lam + x)^4 falls to such a rest r
    _rest = staticmethod(lambda coef, inv4, lb4: inv4 - coef / lb4)
    _limit = staticmethod(lambda coef_x, r, lam: (coef_x / r) ** 0.25 - lam if r > 0 else math.inf)

    def at(self, b, lam):
        """(side_x, rests) at fixed b and lam, from 1/lam^4 and (lam + b)^4
        formed once.

        side_x(J) is the x where the first condition fails (inf if none
        does): the largest width where every condition holds, continuous in
        J, and negative where even x = 0 fails.  A condition's rest,
        1/lam^4 less its known term, is what its x term must exceed; rests
        is (the first condition's, the last's) where they are the same for
        every J (x on the 2J slot), else empty, for ``turns``.  The search
        reads side_x alone at a scored lambda whose root peaks where the
        condition is slack, and builds only the lambda it scores where the
        condition binds, about 4 per table row, keeping none of them.
        """
        inv4, lb4 = 1.0 / lam ** 4, (lam + b) ** 4
        (j0, k0), (j1, k1) = self.conditions[0], self.conditions[-1]
        extra, rest, limit = len(self.conditions) > 1, self._rest, self._limit
        if self.slot == 0:
            rests = r0, r1 = rest(k0, inv4, lb4), rest(k1, inv4, lb4)

            def side_x(J):
                x = limit(j0(J), r0, lam)
                return min(x, limit(j1(J), r1, lam)) if extra else x
        else:
            rests = ()

            def side_x(J):
                x = limit(k0, rest(j0(J), inv4, lb4), lam)
                return min(x, limit(k1, rest(j1(J), inv4, lb4), lam)) if extra else x
        return side_x, rests

    def turns(self, rests):
        """(peaks, troughs): the J where the side limit may turn, at the b and
        lam of ``rests`` (``at``'s).

        Each condition's limit increases with its coefficient.  j0 = min(c J
        + d/J, 4 J) peaks at its kink J^2 = d/(4 - c) (1/7 for 'sz', 1/4 for
        'cc') and has its one trough at J^2 = d/c.  With the known value on
        the square slot (the one extra_j1 case; elsewhere rests is empty and
        no crossing is sought) the two limits cross where
        j0/j1 = rest_0/rest_1 =: rho: on the 4J branch at J^2 = rho - 1, on
        the other at the roots y = J^2 of c y^2 + (c + d - 4 rho) y + d = 0;
        their minimum peaks there or goes on monotone.  j1 = 4J/(J^2+1) peaks
        at J = 1, but the minimum never turns there: at J = 1 ('cc': c = 1,
        d = 3/4) j1 = 2 > j0 = 7/4, and rest_1 < rest_0 (the j1 condition
        carries 2, not 1, on the known value), so the j1 limit
        (j1/rest_1)^(1/4) - lam lies strictly above the j0 limit and the
        minimum follows j0 near J = 1.  Between these points the limit is
        monotone in J.
        """
        c, d = self.c, self.d
        kink = math.sqrt(d / (4.0 - c))
        turns = [kink]
        if len(self.conditions) > 1 and rests:
            rest0, rest1 = rests
            if rest1 > 0.0:
                rho = rest0 / rest1
                if rho - 1.0 <= kink * kink:
                    turns.append(math.sqrt(rho - 1.0))
                B = c + d - 4.0 * rho   # < 0, as rho > 1 > (c + d)/4
                disc = B * B - 4.0 * c * d
                if disc >= 0.0:
                    q = 0.5 * (math.sqrt(disc) - B)
                    turns += [math.sqrt(y) for y in (q / c, d / q) if y >= kink * kink]
        return turns, [math.sqrt(d / c)]

    def reach(self, b, lam, rho):
        """The J where the side limit can reach the width rho, at b and lam:
        at most two (lo, hi) intervals (hi may be inf), outside which ``at``'s
        side_x(J) is below rho.

        side_x(J) >= rho where every condition's coefficient of J reaches a
        level: j0(J) >= kappa, and for extra_j1 also j1(J) >= kappa1.  With
        the unknown width on the 2J slot (slot 0) a level is the condition's
        rest (1/lam^4 less its known term, as ``at`` forms it) times
        (lam + rho)^4; on the square slot it is (lam + b)^4 (1/lam^4 -
        k/(lam + rho)^4).  A level <= 0 admits every J (its rest is <= 0, its
        limit infinite).  j0 = min(c J + d/J, 4 J) >= kappa is J >= kappa/4
        outside the gap between the roots of c J^2 - kappa J + d; j1 =
        4J/(J^2 + 1) >= kappa1 is J between the roots of kappa1 J^2 - 4J +
        kappa1, none past kappa1 = 2.

        Against rounding every level is lowered by 2^-46 of its size, which
        on the square slot is that of (lam + b)^4/lam^4: side_x forms its
        rest there as a difference of terms of that size, each good to an
        ulp, and the coefficients to 2 ulps.  The gap is narrowed and the j1
        interval widened: the discriminants are moved by 2^-46 of kappa^2
        before their root, and each end by 2^-46 after it, far past the few
        ulps of the quotients and the square root.  So for rho > -lam/4 no J
        outside the intervals has a computed side_x(J) >= rho: 2^-46 is past
        the 14 ulps or so by which side_x and a level round.
        """
        tol = 2.0 ** -46
        inv4, lb4, w4 = 1.0 / lam ** 4, (lam + b) ** 4, (lam + rho) ** 4
        if self.slot == 0:
            levels = [self._rest(k, inv4, lb4) * w4 * (1.0 - tol) for _, k in self.conditions]
        else:
            levels = [lb4 * (inv4 * (1.0 - tol) - k / w4) for _, k in self.conditions]
        kappa = levels[0]
        if kappa <= 0.0:
            out = [(0.0, math.inf)]
        else:
            c, d = self.c, self.d
            out = [(0.25 * kappa, math.inf)]
            disc = kappa * kappa * (1.0 - tol) - 4.0 * c * d
            if disc > 0.0:   # cut the gap (lo_gap, hi_gap) out of the J >= kappa/4
                s = math.sqrt(disc)
                lo_gap = 2.0 * d / (kappa + s) * (1.0 + tol)
                hi_gap = (kappa + s) / (2.0 * c) * (1.0 - tol)
                out = [(lo, hi) for lo, hi in ((0.25 * kappa, lo_gap), (hi_gap, math.inf))
                       if lo <= hi]
        if len(levels) > 1 and levels[1] > 0.0:
            kappa1 = levels[1]
            disc = 4.0 - kappa1 * kappa1 * (1.0 - tol)
            if disc < 0.0:
                return []
            s = math.sqrt(disc)
            lo1, hi1 = kappa1 / (2.0 + s) * (1.0 - tol), (2.0 + s) / kappa1 * (1.0 + tol)
            out = [(max(lo, lo1), min(hi, hi1)) for lo, hi in out if max(lo, lo1) <= min(hi, hi1)]
        return out


def _poly_at(case, b, lam, phi, sides):
    """(g, target, stationary, side_x, rests) of a poly case at fixed b,
    lambda, phi.

    The first three are ``_kernels.poly_fn``'s, the last two ``sides``,
    ``case._sides.at(b, lam)``: the case's one side-condition statement at b
    and lambda, which forms 1/lam^4 and (lam + b)^4 once for the limit and
    its turns (``_SideConditions.turns`` of rests).  The search forms
    ``sides`` once per lambda it scores, for its slack test and this build;
    it scores many J at a lambda from one build, and reads a lambda's
    ceiling, values a lambda whose side condition is slack at the ceiling's
    peak and settles one that no J can score its rival with, with none.
    """
    return (*_kernels.poly_fn(case._sides.slot, lam, b, case.psi_over_phi * phi), *sides)


def _poly_bound(at, lam, J):
    """(value, root, h(0), h(POLY_HI), x_side) of a poly case at J.

    ``at`` is ``_poly_at``'s for the case at b, lambda, phi, all checked, and
    x_side the uncapped side limit.  value is min(root, x_side),
    ``solve_poly``'s lambda*, and NaN wherever ``solve_poly`` raises: h has
    no sign change on [0, POLY_HI] (root NaN) or the side condition fails at
    width 0 (x_side < 0).  The search scores
    each candidate J by this value alone; ``solve_poly`` adds the checks,
    the residual and the result.
    """
    g, target, _, side_x, _ = at
    root, hlo, hhi = _kernels.poly_root(g, target, J, lam, 0.0, POLY_HI)
    x_side = side_x(J)
    value = math.nan if root != root or x_side < 0.0 else min(root, x_side)
    return value, root, hlo, hhi, x_side


def solve_poly(case, b, lam, J, phi=PHI):
    """Quartic-method repulsion bound with side-condition enforcement.

    The equation root is bracketed on [0, POLY_HI].  The returned lambda* is
    min(equation root, side-condition limit), a valid bound up to float
    rounding; ``side_limited`` marks capped results and ``root`` keeps the
    uncapped value.  SideConditionError is raised only when the condition
    fails even at width 0, so no valid point exists; NoBoundError where h
    has no sign change on the bracket, worded and signed by
    ``errors.no_bound`` as in ``solve_smoothed``.  The bound is
    ``_poly_bound``'s, which the search calls for each candidate it scores.
    The inputs are checked first, once (``_check_poly``): ``side_margin`` is
    the side-condition statement's margin at the root, in [0, POLY_HI].
    """
    case = _check_poly(case, b, lam, J, phi)
    psi = case.psi_over_phi * phi
    lam, J, b = float(lam), float(J), float(b)
    at = _poly_at(case, b, lam, phi, case._sides.at(b, lam))
    value, root, hlo, hhi, x_side = _poly_bound(at, lam, J)
    if math.isnan(root):
        raise no_bound(case.name, POLY_HI, f"b={b}, lambda={lam}, J={J}", hlo, hhi)
    if x_side < 0.0:
        raise SideConditionError(
            f"{case.name}: side condition fails for every width at "
            f"(b={b}, lambda={lam}, J={J}); no valid bound")
    scale = (1.0 + (J * J + 0.5) * _kernels.P1 + 2.0 * J * _kernels.P1
             + psi * (J + 1.0) ** 2 * lam)
    residual = abs(at[0](J, lam / (lam + root))) / scale
    margin = case._sides.margin(b, lam, J, root)
    return BoundResult(case.name, b, value, {"lambda": lam, "J": J}, True, residual,
                       side_limited=value != root, root=root, side_margin=margin)


# ---------------------------------------------------------------------------
# closed-form small-width bounds
# ---------------------------------------------------------------------------

def very_small_dh(psi, lambda_prime, c1=2):
    """Width threshold (lambda'/(2 c1 e)) exp(-2 psi lambda').

    Repulsion to distance lambda' is provable once the exceptional width is
    below this threshold.  c1 matches the F-difference multiplier of the
    driving inequality (2 for the same-character shapes, 1 for the
    second-character ones); the bound is non-trivial for lambda' >= 2 c1 e.
    The epsilon slack of the asymptotic regime is omitted.  psi and lambda'
    must be finite and > 0.
    """
    positive("psi", psi)
    positive("lambda'", lambda_prime)
    if not (real(c1) and c1 in (1, 2)):   # True == 1
        raise InvalidParameterError(f"c1 must be 1 or 2, got {_shown(c1)}")
    return lambda_prime / (2.0 * c1 * math.e) * math.exp(-2.0 * psi * lambda_prime)


def very_small_inverse(psi, lambda1):
    """Inverse form: repulsion distance (1/(2 psi)) log(1/lambda1), for a
    finite psi > 0."""
    positive("psi", psi)
    if not (real(lambda1) and 0 < lambda1 < 1):
        raise InvalidParameterError(f"lambda1 must be in (0, 1), got {_shown(lambda1)}")
    return math.log(1.0 / lambda1) / (2.0 * psi)


def cos_bound(theta, psi):
    """Repulsion bound 2 cos^2(theta) / psi from a cosine-type weight pair.

    theta is the angle data of the weight (see K_FAMILY_PAIRS); psi is the
    case's multiple of phi, finite and > 0.
    """
    if not (real(theta) and 0 < theta < math.pi / 2):
        raise InvalidParameterError(f"theta must be in (0, pi/2), got {_shown(theta)}")
    positive("psi", psi)
    return 2.0 * math.cos(theta) ** 2 / psi


def piecewise_log_constant(rows, b_min):
    """Uniform constant c with lambda* >= c log(1/width) over a bound chain.

    ``rows`` are (b_i, lambda*_i) sorted ascending in b_i with b_min strictly
    below the first b.  On each subinterval [b_{i-1}, b_i] the chain gives
    lambda* >= lambda*_i while log(1/width) <= log(1/b_{i-1}), so the uniform
    constant is the minimum of lambda*_i / log(1/b_{i-1}).  Each lambda*_i
    must be finite and > 0, and each width a real number in (0, 1)
    (``errors.real``), both checked before they are read as floats.
    """
    rows = [(b, ls) for b, ls in rows]   # pairs, unconverted until checked
    if not rows:
        raise InvalidParameterError("empty bound chain")
    for _, ls in rows:
        positive("chain bounds lambda*", ls)
    bs = [b_min] + [b for b, _ in rows]
    for b in bs:
        if not (real(b) and 0.0 < b < 1.0):
            raise DomainError(f"chain widths must lie in (0, 1), got {_shown(b)}")
    if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
        raise InvalidParameterError("chain widths must be strictly increasing")
    return min(float(ls) / math.log(1.0 / float(bp)) for bp, (_, ls) in zip(bs[:-1], rows))
