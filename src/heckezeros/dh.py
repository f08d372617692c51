"""Zero-repulsion solvers: how far the other zeros sit from an exceptional one.

Every configuration of worst character / worst zero (real vs complex,
principal vs not, second zero of the same character vs worst zero of the next
character) reduces to one of two one-dimensional root problems:

* smoothed form, driven by a trial weight f with transform F:
      h(x) = c1 (F(-x) - F(b-x)) - F(0) + psi f(0)          ("sz")
      h(x) = F(-b) - F(0) - F(x-b) + psi f(0)               ("cc")
* quartic-polynomial form in tuning parameters (lambda, J), where the known
  width bound b sits either on the (J^2 + 1/2) term or on the 2J term and the
  unknown on the other, plus a quartic side condition that certifies the
  discarded complex-zero terms were non-negative.

Each case record below wires one lemma variant: its psi multiple of the
critical-strip constant phi, the multiplier c1, which slot carries the
unknown, and which side-condition coefficient formula applies.  The case
table is data so the wiring can be audited line by line.

``solve_smoothed`` is a thin wrapper over ``_smoothed_root``, the root
alone, which the family search calls for every weight it scores (on a
snapped h, whose root stops at h's rounding floor); the solver adds the
failure reports, the residual and the ``BoundResult``, and its roots, on the
exact h, resolve to adjacent floats.
``solve_poly`` is one over ``_poly_bound``, the bound alone, which the
quartic search calls for every candidate J with the constants of its
lambda built once (``_poly_at``).

Statements whose raw form carries oscillatory terms Re F(. + i mu) are used
here only through their reduced real forms (``trial_functions.repel_reduce``);
the unreduced transforms remain available via ``TrialFunction.laplace``.

All bounds hold up to an arbitrarily small epsilon coming from the asymptotic
regime (conductor-discriminant quantity sufficiently large); the solvers
report the exact root, and the asserted bound is root - epsilon.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (DomainError, InvalidParameterError, NoBoundError,
                     SideConditionError)

#: Critical-strip growth constant; the convexity bound fixes it at 1/4.
PHI = 0.25

E = math.e


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
    tables: tuple = field(default=())


CASES = {c.name: c for c in (
    # -- smoothed, worst character and worst zero real -----------------------
    SolverCase("sz-lp-quadratic", "smoothed", 4.0,
               "second zero of a quadratic worst character", c1=2,
               tables=("T2:quadratic",)),
    SolverCase("sz-lp-principal", "smoothed", 2.0,
               "second zero, worst character principal", c1=2,
               tables=("T2:principal",)),
    SolverCase("sz-l2-nonprincipal", "smoothed", 4.0,
               "second-worst character's zero, both characters non-principal", c1=1,
               tables=("T7:nonprincipal",)),
    SolverCase("sz-l2-chi1-principal", "smoothed", 2.0,
               "second-worst character's zero, worst character principal", c1=1,
               tables=("T7:principal",)),
    SolverCase("sz-l2-chi2-principal", "smoothed", 4.0,
               "second-worst character's zero, that character principal", c1=2,
               tables=("T2:quadratic",)),
    # -- smoothed, complex case ----------------------------------------------
    SolverCase("cc-lp-principal-real", "smoothed", 2.0,
               "second zero real, worst character principal with complex worst zero",
               c1=2, tables=("T6",)),
    SolverCase("cc-l2-nonprincipal", "smoothed", 4.0,
               "second-worst character's zero, complex case, both non-principal",
               c1=1, form="cc", tables=("T8:nonprincipal",)),
    SolverCase("cc-l2-chi2-principal-real", "smoothed", 2.0,
               "second-worst character's zero real, that character principal, complex case",
               c1=1, form="cc", tables=("T8:chi2-principal-real",)),
    # -- polynomial, worst character and worst zero real ---------------------
    SolverCase("sz-lp-quadratic-medium", "poly", 2.0,
               "second zero complex, quadratic worst character, medium widths",
               unknown_slot="known-on-square", j0="sz", tables=("T3:quadratic",)),
    SolverCase("sz-lp-principal-medium", "poly", 1.0,
               "second zero complex, worst character principal, medium widths",
               unknown_slot="known-on-square", j0="sz", tables=("T3:principal",)),
    SolverCase("sz-l2-chi2-principal-medium", "poly", 2.0,
               "second-worst character's complex zero, that character principal",
               unknown_slot="known-on-square", j0="sz", tables=("T3:quadratic",)),
    # -- polynomial, complex case --------------------------------------------
    SolverCase("cc-lp-nonprincipal", "poly", 2.0,
               "second zero, complex case, worst character non-principal",
               unknown_slot="known-on-linear", j0="cc", j_min=0.25, tables=("T4",)),
    SolverCase("cc-lp-principal", "poly", 2.0,
               "second zero complex, worst character principal, complex case",
               unknown_slot="known-on-square", j0="cc", extra_j1=True, tables=("T5",)),
    SolverCase("cc-l2-chi1-principal", "poly", 2.0,
               "second-worst character's zero, complex case, worst character principal",
               unknown_slot="known-on-linear", j0="cc", tables=("T9",)),
    SolverCase("cc-l2-chi2-principal-complex", "poly", 2.0,
               "second-worst character's complex zero, that character principal, complex case",
               unknown_slot="known-on-square", j0="cc", tables=("T10",)),
)}

SMOOTHED_CASES = tuple(n for n, c in CASES.items() if c.method == "smoothed")
POLY_CASES = tuple(n for n, c in CASES.items() if c.method == "poly")


@dataclass(frozen=True)
class BoundResult:
    """A solved repulsion bound lambda* for the hypothesis 'width >= b'.

    ``lambda_star`` is always a valid bound: when the quartic side condition
    fails at the equation root, the result is capped at the largest point
    where it still holds (the corollaries only require some point satisfying
    both), ``side_limited`` is set, and ``root`` keeps the uncapped value.
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


def get_case(name):
    try:
        return CASES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown solver case {name!r}; available: {sorted(CASES)}") from None


def require_finite(**values):
    """Raise InvalidParameterError naming the first NaN or infinite value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}")


def check_phi(phi):
    """Raise InvalidParameterError unless phi is finite and >= 0.

    A negative phi would flip the sign of the phi term of every inequality,
    and with it the bound; phi = 0 drops the term.
    """
    require_finite(phi=phi)
    if phi < 0:
        raise InvalidParameterError(f"phi must be >= 0, got {phi}")


def check_width(b, phi):
    """Raise InvalidParameterError unless b and phi are finite and >= 0.

    The solvers and the searches over them check these before any work.
    """
    require_finite(b=b, phi=phi)
    if b < 0:
        raise InvalidParameterError(f"width hypothesis b must be >= 0, got {b}")
    check_phi(phi)


# ---------------------------------------------------------------------------
# smoothed solver
# ---------------------------------------------------------------------------

def smoothed_h(case, f, b, phi=PHI):
    """The case's monotone bracketing function, vectorized over x.

    It uses only the array path of ``f.laplace``, never the solver's scalar
    kernel, so the scan oracle that checks the solver stays independent.
    """
    case = get_case(case) if isinstance(case, str) else case

    def F(r):   # through a 1-d array even for a scalar r
        r = np.asarray(r, dtype=float)
        return f.laplace(r.reshape(-1)).real.reshape(r.shape)
    return _kernels.smoothed_fn(F, 0 if case.form == "sz" else 1, case.c1,
                                case.psi_over_phi * phi, b, f.content.f0)


def _smoothed_root(case, F, f0, b, phi, hi=60.0, guess=None, snap=False):
    """(root, h(0), h(hi), hi, h) of a smoothed case's h for the transform F.

    F maps real r to F(r) as a float and f0 = f(0); ``case`` is a smoothed
    SolverCase and b, phi are checked.  The root is NaN wherever
    ``solve_smoothed`` raises NoBoundError: h has no sign change on [0, hi]
    (or is NaN at an end), or is 0 at both ends.  ``hi`` is the bracket end
    the solve used.  The family search scores weights by this root alone;
    ``solve_smoothed`` adds the checks, the residual and the result.

    ``snap`` is the family search's: h is ``smoothed_fn``'s snapped h, 0.0
    below its rounding floor, so the root stops where the sign of h turns to
    rounding noise instead of at adjacent floats (a search root, which only
    ranks weights; ``solve_smoothed`` never snaps).  A 'cc' h that is positive
    at 0, where it costs no transform call, bounds nothing, as h increases: it
    returns at once, with a NaN root and h(hi) not evaluated (NaN).  A snapped
    h that is 0 at the top end of the bracket its solve used gives a NaN root.
    """
    hi = float(hi)
    form = 0 if case.form == "sz" else 1
    # keep the 'sz' bracket inside the overflow range of e^{x0 x}: F(-hi) = inf
    # makes h(hi) infinite (or NaN as inf - inf).  The 'cc' shape reads F at
    # x - b >= -b only, where a smaller bracket cannot help
    for _ in range(60):
        if form == 1 or hi <= 1.0 or not math.isinf(F(-hi)):
            break
        hi = 0.5 * hi
    h = _kernels.smoothed_fn(F, form, float(case.c1), case.psi_over_phi * phi, b, f0,
                             snap)
    if snap and form == 1:
        hlo = h(0.0)
        if hlo > 0.0:
            return math.nan, hlo, math.nan, hi, h
    root, hlo, hhi = _kernels.smoothed_root(h, 0.0, hi, guess)
    # a snapped h that is 0 at the top of its bracket shows no point clearly
    # above its root: its sign is noise up there, as for the 'sz' h at b = 0,
    # the constant psi f(0) - F(0) that the floor of its F(-x) terms exceeds
    # at large x
    if hhi == 0.0 and (snap or hlo == 0.0):
        root = math.nan
    return root, hlo, hhi, hi, h


def solve_smoothed(case, f, b, phi=PHI, hi=60.0, guess=None):
    """Root of the smoothed repulsion function; the bound is root - epsilon.

    Brackets on [0, hi]: h is increasing on the whole line, and near the ends
    of the bound tables the provable bound sits barely above (or, for a
    slightly weaker weight, below) the width hypothesis itself.  When h never
    changes sign the failure mode matters: staying positive means no
    repulsion is provable with this weight, staying negative means the
    inequality degenerates (possible for the 'cc' shape when
    F(-b) - F(0) + psi f(0) <= 0, a regime the source lemmas do not address);
    both raise NoBoundError with the sign recorded.  An h that is 0 at both
    ends (the 'sz' shape at b = 0 when F(0) = psi f(0)) bounds nothing either
    and raises NoBoundError with sign None.

    ``guess``, a point near the root such as the root of a nearby weight,
    goes to the root solver (``_kernels._bisect``): it changes only how many
    evaluations of F the solve makes, never which error is raised.  The
    root itself may move within float noise, as the solver takes another
    path to it.  The root is ``_smoothed_root``'s, which the family search
    calls for each weight it scores.
    """
    case = get_case(case) if isinstance(case, str) else case
    if case.method != "smoothed":
        raise InvalidParameterError(f"case {case.name} is not a smoothed case")
    check_width(b, phi)
    code = f.kernel_code()
    if code is not None:
        F = functools.partial(_kernels._f_real_scalar, code)
    else:
        def F(r):
            return float(f.laplace(r).real)
    b = float(b)
    root, hlo, hhi, hi, h = _smoothed_root(case, F, f.content.f0, b, phi, hi, guess)
    if math.isnan(hlo) or math.isnan(hhi):
        raise NoBoundError(
            f"{case.name}: h is NaN at an end of [0, {hi}] for {f!r}")
    if hlo == 0.0 and hhi == 0.0:
        raise NoBoundError(
            f"{case.name}: h is 0 at both ends of [0, {hi}] for {f!r}"
            " (degenerate / unbounded, flagged for review)")
    if math.isnan(root):
        sign = "positive" if hlo > 0 else "negative"
        raise NoBoundError(
            f"{case.name}: h stays {sign} on [0, {hi}] for {f!r}"
            + (" (no repulsion provable)" if sign == "positive"
               else " (degenerate / unbounded, flagged for review)"),
            sign=sign)
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

#: the side-condition coefficient j0 = min(c J + d/J, 4 J) as (c, d) per form
_J0_FORMS = {"sz": (0.5, 0.5), "cc": (1.0, 0.75)}


def _j0(c, d, J):
    return min(c * J + d / J, 4.0 * J)


def j0_value(case, J):
    """Side-condition coefficient on the 2J-slot term."""
    case = get_case(case) if isinstance(case, str) else case
    return _j0(*_J0_FORMS[case.j0], J)


def j1_value(J):
    """Coefficient of the second side condition in the fully principal case."""
    return 4.0 * J / (J * J + 1.0)


def poly_h(case, b, lam, J, phi=PHI):
    """The case's monotone bracketing function, vectorized over x."""
    case = get_case(case) if isinstance(case, str) else case
    g = _poly_at(case, b, lam, phi)[0]

    def h(x):
        return g(J, lam / (lam + np.asarray(x, dtype=float)))
    return h


def side_condition(case, b, lam, J, x):
    """Evaluate the case's quartic side condition(s) at the candidate root x.

    The J0 coefficient always multiplies the value sitting on the 2J slot.
    Returns (ok, margin) with margin the smallest slack across conditions.
    """
    case = get_case(case) if isinstance(case, str) else case
    sq = b if case.unknown_slot == "known-on-square" else x
    ln = x if case.unknown_slot == "known-on-square" else b
    margin = (j0_value(case, J) / (lam + ln) ** 4
              + 1.0 / (lam + sq) ** 4 - 1.0 / lam ** 4)
    if case.extra_j1:
        margin2 = (2.0 / (lam + sq) ** 4
                   + j1_value(J) / (lam + ln) ** 4 - 1.0 / lam ** 4)
        margin = min(margin, margin2)
    return margin > 0.0, margin


def side_limit(case, b, lam, J):
    """Largest x >= 0 where the side condition(s) hold (margin decreasing in x).

    Closed form: each condition J0/(lam+ln)^4 + 1/(lam+sq)^4 > 1/lam^4 pins
    whichever of ln, sq equals x.  The limit is capped at 1e6.  Returns -inf
    when even x = 0 fails.
    """
    case = get_case(case) if isinstance(case, str) else case
    x = _side_fn(case, b, lam)(J)
    return -math.inf if x < 0.0 else min(x, 1e6)


def _side_rest(b, lam):
    """coef -> 1/lam^4 - coef/(lam+b)^4: what a condition with coef on the
    known value leaves for its x term, at fixed b and lam."""
    inv4, lb4 = 1.0 / lam ** 4, (lam + b) ** 4
    return lambda coef: inv4 - coef / lb4


def _side_fn(case, b, lam):
    """J -> the x where the first of the side conditions fails (inf if none does).

    ``side_limit`` without its cap, at fixed b and lam: continuous in J, and
    negative where even x = 0 fails.  What does not depend on J is formed
    once, here.
    """
    c, d = _J0_FORMS[case.j0]
    rest, extra = _side_rest(b, lam), case.extra_j1

    def limit(coef_x, r):   # the x where coef_x/(lam+x)^4 falls to r
        return (coef_x / r) ** 0.25 - lam if r > 0 else math.inf

    # x sits on the linear slot when the known value is on the square one, and
    # then each condition's rest is the same for every J
    if case.unknown_slot == "known-on-square":
        rest0, rest1 = rest(1.0), rest(2.0)

        def side_x(J):
            x = limit(_j0(c, d, J), rest0)
            return min(x, limit(j1_value(J), rest1)) if extra else x
    else:
        def side_x(J):
            x = limit(1.0, rest(_j0(c, d, J)))
            return min(x, limit(2.0, rest(j1_value(J)))) if extra else x
    return side_x


def _side_turns(case, b, lam):
    """(peaks, troughs): the J where the side limit may turn, at fixed b, lam.

    Each condition's limit increases with its coefficient.  j0 = min(c J + d/J,
    4 J) peaks at its kink J^2 = d/(4 - c) (1/7 for 'sz', 1/4 for 'cc') and
    has its one trough at J^2 = d/c.  With the known value on the square slot
    (the one extra_j1 case) the two limits cross where j0/j1 = rest_0/rest_1
    =: rho: on the 4J branch at J^2 = rho - 1, on the other at the roots
    y = J^2 of c y^2 + (c + d - 4 rho) y + d = 0; their minimum peaks there
    or goes on monotone.  j1 = 4J/(J^2+1) peaks at J = 1, but the minimum
    never turns there: at J = 1 ('cc': c = 1, d = 3/4) j1 = 2 > j0 = 7/4,
    and rest_1 < rest_0 (the j1 condition carries 2, not 1, on the known
    value), so the j1 limit (j1/rest_1)^(1/4) - lam lies strictly above the
    j0 limit and the minimum follows j0 near J = 1.  Between these points the
    limit is monotone in J.
    """
    c, d = _J0_FORMS[case.j0]
    kink = math.sqrt(d / (4.0 - c))
    turns = [kink]
    if case.extra_j1:
        rest = _side_rest(b, lam)
        rest0, rest1 = rest(1.0), rest(2.0)
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


def _poly_at(case, b, lam, phi):
    """(g, target, side_x) of a poly case at fixed b, lambda and phi, for every J.

    g and target are ``_kernels.poly_fn``'s, side_x is ``_side_fn``'s: a
    search scores many J at one lambda, and what they share is formed once.
    """
    slot = 0 if case.unknown_slot == "known-on-square" else 1
    g, target = _kernels.poly_fn(slot, lam, b, case.psi_over_phi * phi)
    return g, target, _side_fn(case, b, lam)


def _poly_bound(at, lam, J):
    """(value, root, h(0), h(1000), x_side) of a poly case at J.

    ``at`` is ``_poly_at``'s for the case at b, lambda, phi, all checked, and
    x_side the uncapped side limit.  value is min(root, x_side),
    ``solve_poly``'s lambda*, and NaN wherever ``solve_poly`` raises: h has
    no sign change on [0, 1000] (root NaN) or the side condition fails at
    width 0 (x_side < 0).  The search scores
    each candidate J by this value alone; ``solve_poly`` adds the checks,
    the residual and the result.
    """
    g, target, side_x = at
    root, hlo, hhi = _kernels.poly_root(g, target, J, lam, 0.0, 1e3)
    x_side = side_x(J)
    value = math.nan if root != root or x_side < 0.0 else min(root, x_side)
    return value, root, hlo, hhi, x_side


def solve_poly(case, b, lam, J, phi=PHI):
    """Quartic-method repulsion bound with side-condition enforcement.

    The equation root is bracketed on [0, 1000].  The returned lambda* is
    min(equation root, side-condition limit), which is always a valid bound;
    ``side_limited`` marks capped results and ``root`` keeps the uncapped
    value.  SideConditionError is raised only when the condition fails even
    at width 0, so no valid point exists.  The bound is ``_poly_bound``'s,
    which the search calls for each candidate it scores.
    """
    case = get_case(case) if isinstance(case, str) else case
    if case.method != "poly":
        raise InvalidParameterError(f"case {case.name} is not a polynomial case")
    check_width(b, phi)
    require_finite(lam=lam, J=J)
    if lam <= 0 or J <= 0:
        raise InvalidParameterError(f"need lambda > 0 and J > 0, got {lam}, {J}")
    if J < case.j_min:
        raise InvalidParameterError(f"case {case.name} requires J >= {case.j_min}, got {J}")
    psi = case.psi_over_phi * phi
    lam, J, b = float(lam), float(J), float(b)
    at = _poly_at(case, b, lam, phi)
    value, root, hlo, hhi, x_side = _poly_bound(at, lam, J)
    if math.isnan(root):
        sign = "positive" if hlo > 0 else "negative"
        raise NoBoundError(
            f"{case.name}: no root in [0, 1000.0] at (b={b}, lambda={lam}, J={J});"
            f" h stays {sign}", sign=sign)
    if x_side < 0.0:
        raise SideConditionError(
            f"{case.name}: side condition fails for every width at "
            f"(b={b}, lambda={lam}, J={J}); no valid bound")
    scale = 1.0 + (J * J + 0.5) * 3.2 + 2.0 * J * 3.2 + psi * (J + 1.0) ** 2 * lam
    residual = abs(at[0](J, lam / (lam + root))) / scale
    _, margin = side_condition(case, b, lam, J, root)
    return BoundResult(case.name, b, value, {"lambda": lam, "J": J}, True, residual,
                       side_limited=value != root, root=root, side_margin=margin)


# ---------------------------------------------------------------------------
# closed-form small-width bounds
# ---------------------------------------------------------------------------

def _check_psi(psi):
    """Raise InvalidParameterError unless psi is finite and positive."""
    require_finite(psi=psi)
    if psi <= 0:
        raise InvalidParameterError(f"psi must be positive, got {psi}")


def very_small_dh(psi, lambda_prime, c1=2):
    """Width threshold (lambda'/(2 c1 e)) exp(-2 psi lambda').

    Repulsion to distance lambda' is provable once the exceptional width is
    below this threshold.  c1 matches the F-difference multiplier of the
    driving inequality (2 for the same-character shapes, 1 for the
    second-character ones); the bound is non-trivial for lambda' >= 2 c1 e.
    The epsilon slack of the asymptotic regime is omitted.  psi must be
    finite and positive, lambda' finite.
    """
    _check_psi(psi)
    require_finite(lambda_prime=lambda_prime)
    if lambda_prime <= 0:
        raise InvalidParameterError(f"lambda' must be positive, got {lambda_prime}")
    if c1 not in (1, 2):
        raise InvalidParameterError(f"c1 must be 1 or 2, got {c1}")
    return lambda_prime / (2.0 * c1 * E) * math.exp(-2.0 * psi * lambda_prime)


def very_small_threshold(c1=2):
    """The lambda' value 2 c1 e past which the inverse log form applies."""
    return 2.0 * c1 * E


def very_small_inverse(psi, lambda1):
    """Inverse form: repulsion distance (1/(2 psi)) log(1/lambda1), for a
    finite psi > 0."""
    _check_psi(psi)
    if not (0 < lambda1 < 1):
        raise InvalidParameterError(f"lambda1 must be in (0, 1), got {lambda1}")
    return math.log(1.0 / lambda1) / (2.0 * psi)


def cos_bound(theta, psi):
    """Repulsion bound 2 cos^2(theta) / psi from a cosine-type weight pair.

    theta is the angle data of the weight (see K_FAMILY_PAIRS); psi is the
    case's multiple of phi, finite and positive.
    """
    if not (0 < theta < math.pi / 2):
        raise InvalidParameterError(f"theta must be in (0, pi/2), got {theta}")
    _check_psi(psi)
    return 2.0 * math.cos(theta) ** 2 / psi


def piecewise_log_constant(rows, b_min):
    """Uniform constant c with lambda* >= c log(1/width) over a bound chain.

    ``rows`` are (b_i, lambda*_i) sorted ascending in b_i with b_min strictly
    below the first b.  On each subinterval [b_{i-1}, b_i] the chain gives
    lambda* >= lambda*_i while log(1/width) <= log(1/b_{i-1}), so the uniform
    constant is the minimum of lambda*_i / log(1/b_{i-1}).  Each lambda*_i
    must be finite and > 0.
    """
    rows = [(float(b), float(ls)) for b, ls in rows]
    if not rows:
        raise InvalidParameterError("empty bound chain")
    for _, ls in rows:
        if not (math.isfinite(ls) and ls > 0):
            raise InvalidParameterError(f"chain bounds lambda* must be finite and > 0, got {ls}")
    bs = [b_min] + [b for b, _ in rows]
    for b in bs:
        if not (0.0 < b < 1.0):
            raise DomainError(f"chain widths must lie in (0, 1), got {b}")
    if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
        raise InvalidParameterError("chain widths must be strictly increasing")
    return min(ls / math.log(1.0 / bp) for bp, (_, ls) in zip(bs[:-1], rows))
