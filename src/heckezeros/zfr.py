"""Zero-free region widths lambda_1 by character order.

Each character-order case combines a squared cosine-polynomial identity with
the explicit inequalities.  Expanding (a1 + b1 cos)^2 (a2 + b2 cos)^2 in
multiples of the angle gives the weights c_j attached to the powers chi^j of
the character; the first two coefficients c0, c1 drive the main inequality

    c0 P(1) - c1 P(lambda/(lambda + lambda_1)) + B phi lambda <= 0,

where B combines the per-character normalization coefficients (``ceil``-ed for
integer inputs), and the higher coefficients are discarded through a quartic
side condition p/lambda^4 <= q/(lambda + lambda_1)^4.  When that condition is
the binding constraint, the valid bound is the largest width where it still
holds rather than the root itself; the solver reports both.

Every constant of a case is derived from its one statement in
``POLYNOMIALS``: the polynomial's quadruple (a1, b1, a2, b2), a scale, the
character orders k it covers and the indices of its side condition.  The
coefficients are ``expand_trig_square_product``'s over the scale.  For a
character of order k, chi^j is principal where j = 0 mod k, so
``combine_L_coefficients`` takes the sum a_k of those c_j and the sum b_k of
the others, and B is the largest combination over the case's orders.  p and
q sum the c_j at the side condition's indices.  This rule is the code's
reading of the paper, inferred from its numbers: it reproduces every
published constant exactly (ROADMAP item 24 asks for the paper's lemma
behind it).

The order-5 and order>=6 cases instead use the smoothed inequality with
c0, c1 of 'order234' and B by the same rule at k = 5 (``SMOOTHED_B``, where
only c0's power is principal): order 5 reduces to a fixed-ratio cosine
bound with the bundled (k, theta) data pair, and order>=6 needs an
externally defined weight, so it is computed with the substitute family and
flagged approximate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dh import PHI, cos_bound
from .errors import InvalidParameterError, NoBoundError, finite, no_bound, nonnegative, positive
from .trial_functions import K_FAMILY_PAIRS
from .zero_density import VARTHETA, check_vartheta

#: right end of the polynomial cases' bracket [0, HI] for lambda_1
HI = 10.0

#: lambda* floor for the order>=6 case, from the complex-case repulsion tables
#: at width 0.180 (min over the second-zero and second-character bounds).
ORDER_GE6_LAMBDA_STAR = 0.3916


@dataclass(frozen=True)
class ZfrCase:
    """A polynomial-method character-order case."""

    name: str
    coeffs: tuple          # cosine-expansion coefficients (c0..c4)
    B: float               # combined normalization coefficient
    side: tuple            # (p, q): condition p/lam^4 <= q/(lam+x)^4
    description: str


#: each polynomial case stated once: the quadruple (a1, b1, a2, b2) of
#: (a1 + b1 cos)^2 (a2 + b2 cos)^2, the scale its coefficients are divided by,
#: the character orders k it covers, the indices j of the c_j summed into p
#: and into q of its side condition, and its description
POLYNOMIALS = {
    "order234": ((3, 10, 9, 10), 1, (2, 3, 4), ((2,), (1, 3)),
                 "worst character of order 2, 3 or 4"),
    "principal": ((0, 10, 7, 10), 10, (1,), ((1,), (0, 2)),
                  "principal worst character (necessarily complex worst zero)"),
}


@dataclass(frozen=True)
class ZfrResult:
    case: str
    lam: float
    lambda1: float
    side_ok: bool
    side_limited: bool
    root: float
    residual: float
    approximate: bool = False


def get_case(case):
    """The ZfrCase of ``case``, a name or a record."""
    if isinstance(case, ZfrCase):
        return case
    if isinstance(case, str) and case in CASES:   # a list would raise TypeError here
        return CASES[case]
    raise InvalidParameterError(
        f"unknown zero-free-region case {case!r}; available: {sorted(CASES)}")


def _check(case, lam, phi=PHI):
    """(ZfrCase, lam, phi) as floats; raises InvalidParameterError unless
    lambda is finite and > 0 and phi finite and >= 0."""
    case = get_case(case)
    positive("lambda", lam)
    # a negative phi would flip the sign of the width term and inflate the
    # bound; phi = 0 drops the term
    nonnegative("phi", phi)
    return case, float(lam), float(phi)


def expand_trig_square_product(a1, b1, a2, b2):
    """Coefficients of 1, cos, cos 2., cos 3., cos 4. in (a1+b1 cos)^2 (a2+b2 cos)^2.

    Exact product-to-sum reduction, in floats; with integer inputs every
    output is exact while the products stay below 2^53 (the reductions only
    divide by 2, 4 and 8).  Raises InvalidParameterError unless the four
    inputs are finite reals (``errors.finite``) and every coefficient is
    finite.
    """
    a1, b1, a2, b2 = (finite(n, v) for n, v in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2)))
    p0 = a1 * a2
    p1 = a1 * b2 + a2 * b1
    p2 = b1 * b2
    c0 = p0 * p0 + (p1 * p1 + 2.0 * p0 * p2) / 2.0 + 3.0 * p2 * p2 / 8.0
    c1 = 2.0 * p0 * p1 + 1.5 * p1 * p2
    c2 = (p1 * p1 + 2.0 * p0 * p2) / 2.0 + p2 * p2 / 2.0
    c3 = p1 * p2 / 2.0
    c4 = p2 * p2 / 8.0
    coeffs = (c0, c1, c2, c3, c4)
    if not all(map(math.isfinite, coeffs)):
        raise InvalidParameterError(f"cosine coefficients past the float range: {coeffs}")
    return coeffs


def combine_L_coefficients(a, b, vartheta=VARTHETA):
    """Combine a . L_0 + b . L_chi into a single multiple of L.

    L_0 <= L always and L_chi <= L / vartheta, so the combination is a + b
    when b <= 3a and 4a + (b - 3a)/vartheta otherwise (the 3a split uses
    vartheta >= 3/4).  Integer inputs are rounded up to the next integer,
    matching the ceiling convention of the bundled constants.  a must be
    finite and > 0, b finite and >= 0.
    """
    positive("a", a)
    nonnegative("b", b)
    check_vartheta(vartheta)
    if b <= 3 * a:
        out = a + b
    else:
        out = 4.0 * a + (b - 3.0 * a) / vartheta
    if float(a).is_integer() and float(b).is_integer():
        return float(math.ceil(out - 1e-9))
    return float(out)


def _combined_B(coeffs, orders):
    """B of cosine coefficients c_j over the character orders k: the largest
    ``combine_L_coefficients(a_k, b_k)``, a_k the sum of the c_j whose power
    chi^j is principal (j = 0 mod k) and b_k the sum of the others."""
    return max(combine_L_coefficients(sum(c for j, c in enumerate(coeffs) if j % k == 0),
                                      sum(c for j, c in enumerate(coeffs) if j % k))
               for k in orders)


def _derived_case(name, quad, scale, orders, side, description):
    """The ZfrCase of a ``POLYNOMIALS`` statement."""
    coeffs = tuple(c / scale for c in expand_trig_square_product(*quad))
    p, q = (sum(coeffs[j] for j in js) for js in side)
    return ZfrCase(name, coeffs, _combined_B(coeffs, orders), (p, q), description)


CASES = {name: _derived_case(name, *statement) for name, statement in POLYNOMIALS.items()}

#: combined normalization coefficient B of the smoothed inequality of the
#: order-5 and order>=6 cases, whose c0, c1 are those of 'order234': the same
#: rule at k = 5, where only c0's power is principal
SMOOTHED_B = _combined_B(CASES["order234"].coeffs, (5,))


def zfr_h(case, lam, phi=PHI):
    """The increasing function of lambda_1 whose root gives the region width;
    inputs are checked as in ``zfr_solve``."""
    case, lam, phi = _check(case, lam, phi)
    g = _kernels.zfr_fn(case.coeffs[0], case.coeffs[1], case.B, lam, phi)[0]

    def h(x):
        return g(lam / (lam + np.asarray(x, dtype=float)))
    return h


def side_condition_limit(case, lam):
    """Largest x >= 0 with p/lam^4 <= q/(lam+x)^4, or -inf if none, inf if
    all; lambda must be finite and > 0, as in ``zfr_solve``."""
    case, lam, _ = _check(case, lam)
    p, q = case.side
    ratio = q / p
    if ratio < 1.0:
        return -math.inf
    return lam * (ratio ** 0.25 - 1.0)


def _zfr_bound(case, lam, phi):
    """(value, root, h(0), h(HI), side limit) of a case at lambda.

    ``case`` is a ZfrCase and lam > 0, phi >= 0 are checked floats.  value is
    the width ``zfr_solve`` returns, NaN wherever it raises NoBoundError (h
    has no sign change on [0, HI]).  ``zfr_optimize`` returns this value at
    its lambda; ``zfr_solve`` adds the checks, the residual and the result.
    """
    root, hlo, hhi = _kernels.zfr_root(float(case.coeffs[0]), float(case.coeffs[1]),
                                       float(case.B), lam, phi, 0.0, HI)
    limit = side_condition_limit(case, lam)
    if root != root:
        value = math.nan
    else:
        value = 0.0 if limit < 0 else min(root, limit)
    return value, root, hlo, hhi, limit


def zfr_solve(case, lam, phi=PHI):
    """Zero-free-region width for a chosen lambda.

    Returns the smaller of the inequality root, bracketed on [0, HI], and the
    side-condition limit:
    the argument proves the region only while the side condition holds, and
    for the principal case the published width is exactly the (near-tight)
    side limit.  ``side_ok`` refers to the returned width; ``side_limited``
    records when the cap was the binding constraint.  A negative phi is
    rejected; phi = 0 drops the width term.  Where the inequality has no
    sign change on the bracket, NoBoundError is raised, worded and signed by
    ``errors.no_bound`` as for the repulsion solvers.
    """
    case, lam, phi = _check(case, lam, phi)
    value, root, hlo, hhi, limit = _zfr_bound(case, lam, phi)
    if math.isnan(root):
        raise no_bound(f"zfr {case.name}", HI, f"lambda={lam}", hlo, hhi, proves="region")
    # relative to the ~1e5-sized terms of the inequality
    c0, c1, B = float(case.coeffs[0]), float(case.coeffs[1]), float(case.B)
    scale = 1.0 + c0 * _kernels.P1 + B * phi * lam
    residual = abs(_kernels.zfr_fn(c0, c1, B, lam, phi)[0](lam / (lam + root))) / scale
    return ZfrResult(case.name, lam, value, limit >= 0, value != root or limit < 0,
                     root, residual)


def zfr_order5(phi=PHI):
    """Width for order-5 characters via the fixed-ratio cosine bound.

    The driving inequality, normalized by its leading coefficient, reads
    F(-lambda_1) - (c1/c0) F(0) + (B/c0) phi f(0) >= 0 with c0, c1 of
    'order234' and B = ``SMOOTHED_B``; the matching cosine-type weight has
    the bundled angle theta of k = c1/c0 (``K_FAMILY_PAIRS``), giving
    lambda_1 >= cos^2(theta) c0 / (B phi).  phi must be finite and > 0.
    """
    positive("phi", phi)
    theta = K_FAMILY_PAIRS[2][1]
    B_over_c0 = SMOOTHED_B / CASES["order234"].coeffs[0]
    return cos_bound(theta, 2.0 * B_over_c0 * phi)


def zfr_order_ge6(f, lam_star=ORDER_GE6_LAMBDA_STAR, phi=PHI):
    """Width for order >= 6 via the smoothed inequality, substitute weight.

    Solves c0 F(-lam_star) - c1 F(x - lam_star) + B phi f(0) = 0 for x in
    [0, lam_star], with c0, c1 of 'order234' and B = ``SMOOTHED_B``.  The
    root is ``_kernels.smoothed_root``'s.
    Where the function is still negative at lam_star (and not positive at
    0) the full floor lam_star is the width; any other failure to change
    sign raises NoBoundError (``errors.no_bound``).  The published constant
    uses an externally defined weight, so results here are flagged
    approximate.  lam_star (lambda*) must be finite and > 0, phi finite and
    >= 0.
    """
    positive("lambda*", lam_star)
    nonnegative("phi", phi)
    c0, c1 = CASES["order234"].coeffs[:2]
    const = c0 * f.laplace_real(-lam_star) + SMOOTHED_B * phi * f.f0

    def h(x):
        return const - c1 * f.laplace_real(x - lam_star)

    root, hlo, hhi = _kernels.smoothed_root(h, 0.0, lam_star)
    if hhi < 0 and not hlo > 0:
        # inequality still negative at lam_star, and h(0) > 0 would refuse
        # first: the full floor is provable
        return ZfrResult("order-ge6", float(lam_star), float(lam_star), True,
                         False, float(lam_star), 0.0, approximate=True)
    if math.isnan(root):
        raise no_bound("order>=6", lam_star, repr(f), hlo, hhi, proves="region")
    return ZfrResult("order-ge6", float(lam_star), float(root), True, False,
                     float(root), abs(h(root)), approximate=True)


def zfr_optimize(case, phi=PHI):
    """Best lambda for a polynomial case and its width, as (lambda, width).

    Along the root, P(u) = (c0 P(1) + B phi lambda)/c1 with u = lambda/(lambda
    + x), so lambda(u) = (c1 P(u) - c0 P(1))/(B phi) grows with u for phi > 0.
    The root x(u) = lambda(u) (1/u - 1) rises while c1 u^3 (0.4 + 1.2 u +
    1.6 u^2) < c0 P(1) and falls after, so it peaks once, at u_peak (order234:
    0.8847), found by ``_kernels._bisect`` on [0, 1].  The side condition
    holds for u >= u_s = (p/q)^(1/4), so the width, the smaller of the root
    and the side limit, peaks at lambda(max(u_peak, u_s)), clamped to [0.05,
    3].  At phi = 0, u stays where P(u) = c0 P(1)/c1 and both the root and the
    side limit grow linearly in lambda: lambda = 3.  The width is
    ``_zfr_bound``'s at that lambda, so ``zfr_solve`` returns it too.

    Where the side limit binds (u_s > u_peak, as for 'principal'), the root
    meets it at lambda(u_s), and the rounded lambda(u_s) may land where the
    root is the smaller; lambda steps down by 1, 2, 4, ... ulps until the
    limit is, so ``zfr_solve`` reports the result as side-limited.  The gap
    grows as lambda falls below the kink, so the steps end, at the latest at
    lambda = 0.05: 2 for 'principal' at phi = 1/4.  NoBoundError where no
    positive width is provable (c1 <= c0 or q <= p) or no lambda in [0.05, 3]
    has a root.  phi is checked first.
    """
    case = get_case(case)
    nonnegative("phi", phi)
    phi = float(phi)
    c0, c1, B = float(case.coeffs[0]), float(case.coeffs[1]), float(case.B)
    p, q = case.side
    u_peak = _kernels._bisect(lambda u: c1 * u ** 3 * (0.4 + u * (1.2 + 1.6 * u))
                              - c0 * _kernels.P1, 0.0, 1.0)[0]
    u_side = (p / q) ** 0.25
    # u_peak is NaN where c1 < c0, and no lambda has a root: u_side comes
    # first, so lambda stays a number and the width is NaN
    u = max(u_side, u_peak)
    lam = 3.0 if phi == 0.0 else min(max(
        (c1 * _kernels._p4(u) - c0 * _kernels.P1) / (B * phi), 0.05), 3.0)
    width, root, _, _, limit = _zfr_bound(case, lam, phi)
    step = math.ulp(lam)
    while phi > 0.0 and u_side > u_peak and lam > 0.05 and root <= limit:
        lam, step = max(lam - step, 0.05), 2.0 * step
        width, root, _, _, limit = _zfr_bound(case, lam, phi)
    if not u < 1.0 or math.isnan(width):
        raise NoBoundError(f"zfr {case.name}: no feasible lambda in [0.05, 3.0]")
    return lam, width
