"""Numeric kernels in plain Python and NumPy.

The scalar transform, the pair constants and the root solver are plain
Python floats; NumPy serves the array transform ``f_array``, the weight
f(t) (``weight``), ``E`` and the grid minimum ``p4_combo_min``.  The family
codes they read are folded here too, in plain Python (``fold``), from the
generator terms ``trial_functions._build`` gives.

Every bound ends in a monotone root solve.  The smoothed roots, and the
crossings in J of the quartic search, go through one bracketed ITP solver
(interpolate, truncate, project; Oliveira & Takahashi 2021), ``_bisect``:
42% of bisection's evaluations of ``h`` over a set of 280 smoothed solves,
and never more steps than the halvings down to its tolerance plus n0 = 8.
It stops at an exact zero of h, so the family search, which only ranks its
roots, hands it a snapped h (``snapped_fn``) that is exactly 0 below h's
rounding floor (``SNAP_EPS``): a search root stops there, 8.8 evaluations
of h per scored root on seed-1 smoothed-regress against 12.1 to adjacent
floats.  The same h carries its Newton step: h(x, True) is (h(x), step),
read from the derivative kernel ``_f_real_scalar_d``, F and F' of the one
code layout the search builds (``_search_pass``, one exp per generator
exponent, about 1.34 of an F pass of that layout), so each shape's value,
floor and step rule are written once.  The search scores a weight by
``search_root`` on that h, which reads no transform: from the last root it
takes safeguarded Newton steps (rtsafe).  That is 3.8 evaluations of h per
warm solve on seed-1 smoothed-regress (26,809 Newton points and 3,591
other values over 8,064 warm solves), against 9.3 for ITP.  Where the
kernel declines or the steps run out (125 of 8,352 scored solves), ITP
takes over on the bracket the steps have seen, after a look at an end of
[lo, hi] they have not.
Returned bounds are solved by ITP on the exact h and still resolve to
adjacent floats.
The quartic roots need no bracket search: each is P(u) = t for the fixed
convex quartic P in u = lam/(lam+x), which ``_p4_root`` inverts by Newton's method from above,
in at most 9 steps (about 6 evaluations of P per bundled quartic row,
where bisection in x took 65.6 of ``h``).  Each inequality's bracketing
function is written once, by a builder whose arithmetic works on floats and
on arrays: ``smoothed_fn`` returns the smoothed ``h(x)``, and ``poly_fn`` and
``zfr_fn`` return the quartic ones as functions of u, with the value t of
P at their root; ``poly_fn`` builds at fixed lam and b, for every J, and
returns the J where the root is stationary too, all from one
P(lam/(lam+b)).  That t and the stationary J are written once, as
functions of plain numbers (``poly_target``, ``poly_consts``), which
``poly_fn`` and the search's closure-free ceiling both read.  The search's
snapped h, on floats, is ``snapped_fn``'s; the smoothed builders take the
case's shape, 'sz' or 'cc', by its name.
The named root kernels (``smoothed_root``, ``poly_root``, ``zfr_root``) take or
build those functions (``smoothed_root`` and ``poly_root`` take them built,
so a caller reuses them); they return ``(root, h(lo), h(hi))`` with a NaN
root when ``h`` has no sign change, so callers can tell which way the
inequality failed (``errors.no_bound`` words it).  The vectorized ``h`` of
the solver modules and the solvers' residuals come from the same builders,
the vectorized ``h`` through ``vectorized``, which refuses a point where h
is NaN.
``p4_combo_min`` is the grid minimum of the quartic positivity combination.

Trial functions reach this module as a "family code" (see
``trial_functions``) ``(x0, folded)``: the support endpoint and one tuple
``(c, g_j, g_k, K)`` per pair of generator exponents, kept once
per conjugate pair ``(g_j, g_k)``, ``(conj g_j, conj g_k)`` with ``c``
doubled when the two differ: a cosine-modulated generator has 5 folded
pairs of 9, one with ``c0 = 0`` 2 of 4, and a plain one its 1.  All are
plain Python numbers, and a code never changes.  ``K`` is
E(x0; g_j + g_k) (``exp_quotient``).  This module alone knows the
format: ``fold`` makes a code and f(0) from a generator's terms (the pair
layout by term count, ``_FOLDS``, which ``_search_pass`` reads by
position), the transforms and ``weight`` (f(t)) read it, and
``verify._f2_bound`` reads sup |f''| from the terms ``t_terms`` gives;
``trial_functions`` holds a code only to hand it back.  F(0)
(``trial_functions._search_f0``) is ``_f_real_scalar`` at 0.0, formed on
first read.  Where both exponents of a pair lie SMALL_W / x0 or more off
the real axis, the pair fails the series tests below at every real point,
so the kernels need no flag for it.  Every built-in weight, the triangle
included, is an autocorrelation, so neither evaluator branches on the
family.  The transform ``F`` is ``f_real_scalar`` at one real point and
``f_array`` at real or complex points, scalar or array.  On the search's
five-pair codes ``f_real_scalar`` takes one exp per generator exponent
(``_search_pass``, 0.67 of the time of its pass over the pairs, on the F
calls of seed-1 smoothed-regress, with the same bits), and F' comes from
``_f_real_scalar_d`` for those codes alone; it declines (None) for every
other code.  ``f_array`` forms its bookkeeping once per code
(``_array_plan``, cached by the code's identity): two pair lists, the
folded pairs for real points and the unfolded ones for points off the
real axis, where each folded pair with a complex exponent is its two
conjugate pairs again, and for each list its distinct exponents, told
apart by type and bits (``exact_key``), and the rows each pair reads.
Per call it forms the terms of every distinct g_k in one stacked array
operation (3 rows of exps for a cosine weight's five folded pairs, where a
pass over the pairs took 5, and for its nine unfolded ones too) and of
every distinct g_j in another, and the pairs read their rows in one
operation more, each value with the bits of the pass over the pairs: at
1, 8 and 65 points of a cosine weight a call takes about half the time of
a call per pair and exponent.  f(t) (``weight``), called once per weight
on the oracle path, forms its exps and its ``E`` rows once per distinct
exponent by the same keys (``_distinct``, which ``_array_plan`` shares), in
one stacked call per dtype.  At
a real point the terms of two conjugate pairs are conjugates, so a folded
pair adds twice the real part of one; off the real axis the two terms of
each conjugate pair are summed before they join the rest, so
F(conj z) = conj F(z) to the bit.  Each pair term
T = (K - E(x0; g_k - z))/(g_j + z) is the direct form except where
|g_j + z| x0 or |g_k - z| x0 is below ``SMALL_W`` = 1e-2, near coincident
nodes of the divided difference it is, where the direct form would lose
more than half its digits; both evaluators hand those few terms (0.7-0.8%
of the scalar pair evaluations of the benchmark's smoothed and density
items) to one routine, ``pair_near``, within 2.2 eps (1 + |u|) |T| of 50
digits at the tests' real points, u = (g_j + g_k) x0.
``E`` is the array ``(e^{ax} - 1)/a`` the weight is built from.  It,
``exp_quotient`` and ``pair_near`` take the series of (e^w - 1)/w near
w = 0 from one routine, ``_e1``.  The two
transforms agree to 2e-13 relative, not to the bit, as Python and NumPy
complex arithmetic differ in the last bits.  Just above the switch the
direct form loses some digits: against a 50-digit reference the pair sums
are off by up to 4.3e-12 relative (the box of ``x0 = 0.7``, just off the
real axis).
"""

import cmath
import functools
import math
import struct

import numpy as np

from .errors import DomainError


def backend():
    """Name of the kernel backend; there is one, plain NumPy/Python."""
    return "numpy"


#: series-switch threshold for the removable singularities of the closed forms
SMALL_W = 1e-2

#: the largest w whose e^w the package forms as a float, just below the log
#: of the largest float, log(sys.float_info.max)
EXP_MAX = 709.78

#: the -r x0 past which the transforms give F(r) = +inf at a real r, as f >= 0,
#: rather than form exps near the float range's edge, EXP_MAX
_INF_EDGE = 690.0

#: radius in u and v inside which ``pair_near`` sums its three-node series
RHO = 1.0

#: coefficients 1/(m+1)!, m = 0..8, of the series of (e^w - 1)/w
_E_SERIES = tuple(1.0 / math.factorial(m + 1) for m in range(9))

#: coefficients 1/(k+2)!, k = 1..17, of the three-node series of ``pair_near``;
#: at |u|, |v| < RHO the omitted tail is below eps/5 of the sum
_DD_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(1, 18))


def _e1(w):
    """(e^w - 1)/w for |w| < SMALL_W, at a number or an array: its 9-term
    series, by Horner's rule; 1 at w = 0."""
    e = 0.0
    for coeff in reversed(_E_SERIES):
        e = e * w + coeff
    return e


def exp_quotient(a, s):
    """K = E(s; a) = (e^{as} - 1)/a at one complex a, in Python floats.

    Inside the disc |a s| < SMALL_W (a = 0 included) it is s times ``_e1`` of
    w = a s; elsewhere the quotient written out by Smith's method: with
    (p, q) = (1, Im a/Re a) where |Re a| >= |Im a|, else (Re a/Im a, 1), it
    is ((Re x p + Im x q) scl, (Im x p - Re x q) scl), x = e^{as} - 1 and scl
    one over the denominator.  Python's own complex ``/`` rounds differently
    in the last bit on 42% of random quotients, and one ulp of K moves what
    the family searches find (the alpha of a searched T2:quadratic weight at
    b = 1e-7, say), so the written-out quotient keeps every code, and so
    every bound, as it has been.  Raises OverflowError when e^{as} or K is
    not finite.
    """
    w = a * s
    if abs(w) < SMALL_W:
        return s * _e1(w)
    ar, ai = a.real, a.imag
    if abs(ar) >= abs(ai):
        p, q = 1.0, ai / ar
        scl = 1.0 / (ar + ai * q)
    else:
        p, q = ar / ai, 1.0
        scl = 1.0 / (ai + ar * p)
    e = cmath.exp(w)
    xr, xi = e.real - 1.0, e.imag
    K = complex((xr * p + xi * q) * scl, (xi * p - xr * q) * scl)
    if not cmath.isfinite(K):
        raise OverflowError
    return K


def pair_near(K, g_j, g_k, z, x0):
    """The pair term (K - E(x0; A))/b, A = g_k - z and b = g_j + z, where
    |b| x0 or |A| x0 is below SMALL_W; K = E(x0; g_j + g_k).

    The term is x0^2 exp[0, u, v], the second divided difference of exp at
    the nodes 0, u = (g_j + g_k) x0 and v = A x0 (McCurdy, Ng & Parlett 1984;
    Higham 2008).  Where |u| and |v| are below ``RHO`` it is the
    three-node series x0^2 sum_k h_k(u, v)/(k+2)!, h_k = u h_{k-1} + v^k.
    Elsewhere it divides by the widest node gap: by v where u ~ v (|b| x0
    small), as (x0 e^u E1(v - u) - K)/A, and by u - v where v ~ 0, as
    (K - x0 E1(v))/b, with E1(w) = (e^w - 1)/w from ``_e1``.  The operations
    are ordered so that none overflows where the term is finite.
    """
    b, A = g_j + z, g_k - z
    u, v = (g_j + g_k) * x0, A * x0
    if abs(u) < RHO and abs(v) < RHO:
        h = vk = 1.0
        acc = 0.5
        for coeff in _DD_SERIES:
            vk *= v
            h = u * h + vk
            acc += coeff * h
        return x0 * (x0 * acc)
    if abs(b) * x0 < SMALL_W:
        return cmath.exp(u) * (x0 * _e1(-b * x0) / A) - K / A
    return (K - x0 * _e1(v)) / b


#: the folded pairs of a generator of 1, 2 or 3 terms (alpha; g, conj g;
#: alpha, g, conj g, with g = alpha + i beta).  At real r (or t) the terms of
#: the pairs (j, k) and (conj j, conj k) are conjugates, so one of the two is
#: kept, as (j, k, the factor of c_j c_k: 2 where the two pairs differ, the
#: earlier pair whose exponent g_j + g_k it shares or -1).
#: ``_search_pass`` reads the three-term layout: (a, a), (a, g), (g, a),
#: (g, g), (g, conj g)
_FOLDS = (None,
          ((0, 0, 1.0, -1),),
          ((0, 0, 2.0, -1), (0, 1, 2.0, -1)),
          ((0, 0, 1.0, -1), (0, 1, 2.0, -1), (1, 0, 2.0, 1), (1, 1, 2.0, -1), (1, 2, 2.0, 0)))


#: the largest s E(s; 2 alpha) at which ``_pair_terms_finite`` holds,
#: e^``_INF_EDGE``
_M1_MAX = math.exp(_INF_EDGE)


def _pair_terms_finite(alpha, s, K2):
    """Whether every pair term at its coincidence point, as ``pair_near``
    forms it, is proved a finite float without forming it, from alpha, s and
    K2 = E(s; 2 alpha) of a generator whose exponents all have real part
    alpha.

    The term of a pair (g_j, g_k) at z = -g_j is
    M1 = int_0^s t e^{(g_j + g_k) t} dt, so |M1| <= s K2, as |K| <= K2 for
    the pair's K = E(s; g_j + g_k).  The test: 2 alpha s is finite and at
    most ``_INF_EDGE``, so every e^u, u = (g_j + g_k) s, is at most
    e^690, and s K2 is at most ``_M1_MAX`` = e^690.  There ``pair_near``
    takes its series where |u| < 1, at most s^2 <= e s K2 (K2 >= s/e),
    and otherwise e^u s/A - K/A with A = g_j + g_k and |A| s = |u| >= 1,
    whose two terms are at most e s K2 and s K2 (the first splits at
    2 alpha s = -1, 0 and 1).  So every factor, product, quotient and part
    of one is within about 4 e of s K2 (complex operations on parts add a
    factor of 2 at most).  The largest float, e^``EXP_MAX``, is e^19.78 =
    3.9e8 times ``_M1_MAX``, far more than that factor and the few ulps by
    which the rounding of K2, K and each operation moves a value.  Where the
    test fails, which no weight in the search boxes does (there
    |2 alpha s| <= 320), ``fold`` forms every pair term and checks it.
    """
    return -math.inf < 2.0 * alpha * s <= _INF_EDGE and s * abs(K2) <= _M1_MAX


def fold(cs, gs, s):
    """(family code, f(0)) of the generator sum c e^{g u} on [0, s] of the
    terms ``cs``, ``gs`` (1, 2 or 3 of them, every g with one real part
    alpha), in the layout ``_FOLDS`` gives their count.

    Each pair is (c, g_j, g_k, K), c the doubled or plain c_j c_k and
    K = E(s; g_j + g_k) (``exp_quotient``), formed once per distinct
    exponent.  Raises OverflowError where 2 alpha, K, f(0) or a pair term at
    its coincidence point z = -g_j is not a finite float.  2 alpha and the
    pair terms are tested only where ``_pair_terms_finite`` cannot prove the
    terms finite (a 2 alpha that is not finite fails it), after every K:
    given a finite K, ``pair_near`` raises nothing, and a pair that shares
    its exponent has the same term, so the same weights are refused.
    """
    folded = []
    for j, k, factor, same in _FOLDS[len(gs)]:
        g_j, g_k = gs[j], gs[k]
        K = exp_quotient(g_j + g_k, s) if same < 0 else folded[same][3]
        folded.append((cs[j] * cs[k] * factor, g_j, g_k, K))
    # K of the real exponent 2 alpha: the first pair's, or (g, conj g)'s,
    # the second, when c0 = 0 leaves g and conj g alone
    alpha = gs[0].real
    if not _pair_terms_finite(alpha, s, folded[len(gs) == 2][3]):
        # a 2 alpha of -inf rounds the K of 2 alpha to 0, and f(0) with it,
        # where both are tiny but not 0
        if not math.isfinite(2.0 * alpha):
            raise OverflowError
        for _, g_j, g_k, K in folded:
            if not cmath.isfinite(pair_near(K, g_j, g_k, -g_j, s)):
                raise OverflowError
    f0 = sum(c * K for c, _, _, K in folded).real
    if not math.isfinite(f0):
        raise OverflowError
    return (s, tuple(folded)), f0


def _f_real_scalar(code, r):
    """F(r) at one real r, from the folded conjugate pairs of the family code.

    For real r the terms of a pair and of its conjugate pair are complex
    conjugates, so each folded pair stands for both with a doubled
    coefficient and only its real part is summed.  The constants are plain
    Python numbers, so the loop never creates a NumPy scalar.  Arguments past
    the exp overflow range (-r x0 > ``_INF_EDGE``, or a pair's e^{(g_k - r) x0}
    overflowing) return +inf, as f >= 0, instead of letting exp raise: the
    solvers' bracket-shrinking relies on a value coming back.  The value is a
    Python float, so the root solver's arithmetic stays on Python floats.
    The search's code layout takes ``_search_pass``, one exp per generator
    exponent, wherever it serves; every other code and point takes the pass
    over the pairs below, whose bits ``_search_pass`` keeps.
    A pair term near coincident nodes, |g_j + r| x0 or |g_k - r| x0 below
    SMALL_W, comes from ``pair_near``, and every other one from the direct
    form (K - (e^w - 1)/A)/b.  A pair whose exponents both lie SMALL_W / x0
    or more off the real axis fails both tests at every real r, as |g_j + r|
    and |g_k - r| are at least their imaginary parts.
    """
    acc = _search_pass(code, r, False)
    if acc is not None:
        return acc
    x0, folded = code
    if r < 0.0 and -r * x0 > _INF_EDGE:
        return math.inf
    acc = 0.0
    for c, gj, gk, K in folded:
        b = gj + r
        a = gk - r
        w = a * x0
        if abs(b) * x0 < SMALL_W or abs(w) < SMALL_W:
            phi = pair_near(K, gj, gk, r, x0)
        else:
            try:
                e = (cmath.exp(w) - 1.0) / a
            except OverflowError:
                return math.inf
            phi = (K - e) / b
        acc += c * phi.real
    return acc


def _search_pass(code, r, slope=True):
    """F(r) at one real r of a search weight's code, one exp per generator
    exponent, or with ``slope`` (F(r), F'(r)); None where it does not serve.

    The code has the layout the family search builds: the five folded pairs
    (alpha, alpha), (alpha, g), (g, alpha), (g, g), (g, conj g) of a
    three-term generator, g = alpha + i beta, with |beta| x0 >= SMALL_W.  A pair
    term T = (K - E_k)/b_j has r-derivative T' = (D_k - T)/b_j, where b = g +
    r, A = g - r, E = (e^{A x0} - 1)/A and D = (x0 e^{A x0} - E)/A depend on
    one exponent: each is formed once per exponent (conj g's as the
    conjugates of g's), by the operations the pair terms take, and the terms
    add in the order of the code, so F and F' have the bits of the pass over
    the pairs.  alpha runs in float arithmetic with ``cmath.exp``'s bits
    (``math.exp``'s differ where cmath scales e^w), and divides a complex
    value by complex(alpha + r), as Python 3.14 divides by a float part by
    part.  F takes 2 exps and 7 quotients where the pass over the pairs
    takes 5 and 10; F' adds 7 quotients more.

    None for any other layout (|beta| x0 below SMALL_W included), and where
    the pass over the pairs would take ``pair_near`` or return +inf:
    |alpha + r| x0 or |alpha - r| x0 below SMALL_W (g's pairs fail both
    tests, as |Im(g + r)| = |Im(g - r)| = |beta|) or an exp overflowing.  With
    ``slope``, None too where x0 e^{(alpha - r) x0} - E of alpha is not
    finite, which the search's box, with (alpha - r) x0 <= 640, never
    reaches.  Just past a series switch T' loses digits to its divisions by
    |A| or |b| >= SMALL_W / x0 (1.4e-9 relative at worst in the tests),
    which a Newton step tolerates.
    """
    x0, folded = code
    if len(folded) != 5 or (r < 0.0 and -r * x0 > _INF_EDGE):
        return None
    (c0, a, _, K0), (c1, _, _, K1), (c2, _, _, K2), (c3, g, _, K3), (c4, _, _, K4) = folded
    a = a.real
    ba, Aa = a + r, a - r
    wa = Aa * x0
    if abs(ba) * x0 < SMALL_W or abs(wa) < SMALL_W or abs(g.imag) * x0 < SMALL_W:
        return None
    b, A = g + r, g - r
    try:
        ew = cmath.exp(A * x0)
        ea = cmath.exp(wa).real
    except OverflowError:
        return None
    Ea = (ea - 1.0) / Aa
    E = (ew - 1.0) / A
    bc = complex(ba)
    T0 = (K0.real - Ea) / ba
    T1 = (K1 - E) / bc
    T2 = (K2 - Ea) / b
    T3 = (K3 - E) / b
    T4 = (K4 - E.conjugate()) / b
    F = 0.0 + c0 * T0 + c1 * T1.real + c2 * T2.real + c3 * T3.real + c4 * T4.real
    if not slope:
        return F
    m = x0 * ea - Ea
    if not math.isfinite(m):
        return None
    D = (x0 * ew - E) / A
    Da = m / Aa
    return (F, 0.0 + c0 * ((Da - T0) / ba) + c1 * ((D - T1) / bc).real + c2 * ((Da - T2) / b).real
            + c3 * ((D - T3) / b).real + c4 * ((D.conjugate() - T4) / b).real)


#: (F(r), F'(r)) at one real r of a search weight's code, or None:
#: ``_search_pass`` with its slope, F with ``_f_real_scalar``'s bits, and a
#: decline for every other code layout.  The search's Newton steps call it by
#: this name and ``_f_real_scalar`` calls ``_search_pass``, so a counter that
#: replaces this attribute sees the F/F' passes alone
_f_real_scalar_d = _search_pass


def E(x, a):
    """(e^{a x} - 1)/a elementwise, for real x and complex a broadcast together
    to an array (of at least one dimension).

    Where |a x| < SMALL_W it is x times ``_e1`` of w = a x, summed only on
    those elements; where w = 0 that is x exactly.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.asarray(a * x)
        small = np.abs(w) < SMALL_W
        out = (np.exp(w) - 1.0) / np.where(small, 1.0, a)
    if small.any():
        out[small] = np.broadcast_to(x, w.shape)[small] * _e1(w[small])
    return out


def exact_key(x):
    """A dict key for the number ``x`` by its type and exact bits: ``==``
    would make one key of 0.9 and 0.9+0j, and of 0.0 and -0.0, whose
    arrays differ in dtype or in bits."""
    return type(x), struct.pack("<2d", x.real, x.imag)


def _distinct(values):
    """The distinct ``values``, told apart by ``exact_key``, in the order
    they first come, and the index of each value's among them."""
    first = {}
    idx = [first.setdefault(exact_key(v), (len(first), v))[0] for v in values]
    return [v for _, v in first.values()], idx


def t_terms(code):
    """(c, g_k, g_j + g_k) of each folded pair of a family code, the terms
    of f(t) = sum Re c e^{g_k t} E(x0 - t; g_j + g_k); real where g_k and
    g_j + g_k are."""
    out = []
    for c, g_j, g_k, _ in code[1]:
        a = g_j + g_k
        if g_k.imag == 0.0 and a.imag == 0.0:
            g_k, a = g_k.real, a.real
        out.append((c, g_k, a))
    return out


def weight(code, t):
    """f(t) of a family code (x0, folded), ``t_terms`` summed; zero outside
    [0, x0).  The exps of g_k t are formed once per distinct g_k and the E's
    once per distinct g_j + g_k (``_distinct``), each kind in one stacked
    call per dtype (``_stacked_rows``): a cosine weight's five pairs take one
    real and one complex exp call (rows alpha; g, alpha + 0j and conj g, as
    ``t_terms`` makes alpha a float in one pair and a complex in another) and
    one real and one complex E call, where a call per exponent took 4 and 4.
    A real exponent stays real, and each row has the bits of a call at its
    exponent alone."""
    s = code[0]
    t = np.asarray(t, dtype=float)
    shape = t.shape
    t = t.reshape(-1)   # flat, so that each stacked row spans every t
    inside = (t >= 0) & (t < s)
    tc = np.where(inside, t, 0.0)
    x = s - tc
    terms = t_terms(code)
    # e^0 = 1 and E(x, 0) = x exactly: a pair with g_k = a = 0 (a box's)
    # takes no exps, a third of the time of a box's f(t)
    zero = [g_k == 0 and a == 0 for _, g_k, a in terms]
    exps = _stacked_rows([None if nil else g_k for nil, (_, g_k, _) in zip(zero, terms)],
                         lambda G: np.exp(G * tc))
    Es = _stacked_rows([None if nil else a for nil, (_, _, a) in zip(zero, terms)],
                       lambda A: E(x, A))
    acc = np.zeros(t.shape)
    for (c, _, _), e, Er in zip(terms, exps, Es):
        acc += c * x if e is None else (c * e * Er).real
    out = np.where(inside, acc, 0.0)
    return out.reshape(shape) if shape else float(out[0])


def _stacked_rows(values, make):
    """The row of ``make(G)`` that each of ``values`` reads (None for a None
    value), where G is the column of the ``_distinct`` float values, or of
    the complex ones: one call of ``make`` per dtype present, so that no
    float becomes a complex."""
    rows = [None] * len(values)
    for kind in (float, complex):
        at = [i for i, v in enumerate(values) if type(v) is kind]
        if at:
            distinct, idx = _distinct([values[i] for i in at])
            made = make(np.array(distinct, dtype=kind)[:, None])
            for i, r in zip(at, idx):
                rows[i] = made[r]
    return rows


#: the family codes whose ``f_array`` bookkeeping ``_array_plan`` keeps
_ARRAY_PLANS = 64

#: the most elements of one of ``f_array``'s 2-D arrays, 80 KiB of complex.
#: glibc's malloc maps larger ones from the system afresh on each call: one
#: call over 2001 off-axis points of a cosine weight, whose nine unfolded
#: pairs each take a row, took 1.6 times as long in one block as in blocks
#: (233 page faults per call, none in blocks; NumPy 2.4, one Xeon core)
_BLOCK = 5120


def _rows(idx):
    """The rows ``idx`` as a slice where they are consecutive, so that
    reading them takes no copy."""
    if idx == list(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return np.array(idx, dtype=np.intp)


def _read(a, rows):
    """The rows ``rows`` (``_rows``) of ``a``: a view for a slice, else a
    copy by ``take``, in half the time of an index array."""
    return a[rows] if type(rows) is slice else a.take(rows, axis=0)


@functools.lru_cache(maxsize=_ARRAY_PLANS)
def _array_plan(ident, code):
    """``f_array``'s bookkeeping for the family code whose ``id`` is
    ``ident``: a plan for real points, over the folded pairs, and one for
    points off the real axis, over the unfolded pairs: the pairs of real
    exponents, then each other folded pair with c/2, then their conjugate
    pairs (conj g_j, conj g_k, conj K), in the same order and with c/2 too.
    Each plan is ``(Gk, Gj, k, j, K, c, pairs, own, step)``: the distinct
    g_k and g_j, told apart by ``exact_key``, as complex columns, the rows
    of each pair's g_k and g_j, columns of the pairs' K and of the c of the
    leading pairs (all of them at real points), the pairs themselves, the
    count ``own`` of pairs that add on their own, and the points of a
    block.  Keyed by id, with the code held in the key so that no other
    code takes its id: two codes that are == can differ in bits (0.0 and
    -0.0)."""
    folded = code[1]
    alone = [p for p in folded if not (p[1].imag or p[2].imag)]
    halves = [(c / 2, gj, gk, K) for c, gj, gk, K in folded if gj.imag or gk.imag]
    # a real number among g_j, g_k and K is its own conjugate, bits and all,
    # so conj alpha reads alpha's row
    unfolded = alone + halves + [(c, *(x.conjugate() if x.imag else x for x in p))
                                 for c, *p in halves]

    def distinct(values):
        values, rows = _distinct(values)
        return np.array([[v] for v in values], dtype=complex), _rows(rows)

    def plan(pairs, own):
        Gk, k = distinct([p[2] for p in pairs])
        Gj, j = distinct([p[1] for p in pairs])
        K = np.array([[p[3]] for p in pairs], dtype=complex)
        c = np.array([[p[0]] for p in pairs[:len(folded)]], dtype=float)
        for a in (Gk, Gj, K, c):   # shared by every call
            a.flags.writeable = False
        return Gk, Gj, k, j, K, c, tuple(pairs), own, max(1, _BLOCK // len(pairs))

    return plan(folded, len(folded)), plan(unfolded, len(alone))


def f_array(code, z):
    """F(z) of a family code at real or complex z, scalar or array.

    At real z each folded pair adds c Re T(z), T its term.  Off the real axis
    a pair of real exponents, its own conjugate, adds c T(z), and a pair with
    a complex exponent adds the terms of its two conjugate pairs at z, each
    with c/2, summed before they join the rest, so F(conj z) = conj F(z) to
    the bit off the axis.  A scalar z gives a complex, an array a complex
    array of its shape.  Each term is the direct form (K - E)/b, E = (e^w -
    1)/A, A = g_k - z, w = A x0 and b = g_j + z, and ``pair_near`` overwrites
    the few elements near coincident nodes, where |b| x0 or |w| is below
    SMALL_W.  The bookkeeping is formed once per code (``_array_plan``): E
    with the mask |w| < SMALL_W is formed for every distinct g_k in one
    stacked operation, b with |b| x0 < SMALL_W for every distinct g_j in
    another (3 rows of exps for a cosine weight, at real points for its five
    folded pairs and off the axis for its nine unfolded ones), and all pairs
    read their rows in one operation more.  The masks are searched once per
    call, and only where one of them is set.  The rows add in the order of
    the plan, from 0, each by the operations of a pass over the pairs, so
    every value has that pass's bits.  The points go in blocks that keep
    each array within ``_BLOCK`` elements.  At real z no
    value is refused and none warns: F is +inf exactly where
    ``f_real_scalar`` gives inf, past -r x0 = ``_INF_EDGE`` and where e^w of
    a pair term in the direct form overflows; a NaN z raises DomainError.
    Off the real axis, where the terms' inf parts form NaN, a value that is
    not finite raises DomainError naming the first such z.
    """
    x0 = code[0]
    z = np.asarray(z)
    shape = z.shape
    real = z.dtype.kind != "c" or not z.imag.any()
    # real points stay float: the operations with the complex plan cast them
    # to complex as astype does, imaginary part +0.0
    z = z.astype(complex if z.dtype.kind == "c" else float, copy=False).reshape(-1)
    plan = _array_plan(id(code), code)[0 if real else 1]
    step = plan[-1]
    out = np.zeros(z.size, dtype=float if real else complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(0, z.size, step):
            _f_block(x0, plan, real, z[i:i + step], out[i:i + step])
    if not (real or np.isfinite(out).all()):
        raise DomainError(f"F(z) is not a finite number at z={complex(z[~np.isfinite(out)][0])!r}")
    if shape == ():
        return complex(out[0])
    return out.reshape(shape).astype(complex, copy=False)


def _f_block(x0, plan, real, z, out):
    """``f_array`` at the points z of one block, added to ``out``, a float
    array at real points."""
    Gk, Gj, k, j, K, c, pairs, own, _ = plan
    A = Gk - z
    w = A * x0
    E = np.exp(w)
    near_k = np.abs(w) < SMALL_W
    E -= 1.0
    E /= A
    b = Gj + z
    near_j = np.abs(b) * x0 < SMALL_W
    phi = K - _read(E, k)
    phi /= _read(b, j)
    if np.count_nonzero(near_k) or np.count_nonzero(near_j):
        for r, col in zip(*np.nonzero(near_k[k] | near_j[j])):
            _, gj, gk, Kr = pairs[r]
            phi[r, col] = pair_near(Kr, gj, gk, complex(z[col]), x0)
    if own < len(pairs):   # off the real axis: each conjugate pair's sum
        phi[own:len(c)] += phi[len(c):]
        phi = phi[:len(c)]
    if real:
        phi = c * phi.real
    else:
        phi *= c
    for row in phi:
        out += row
    # the least real part times x0 is the least of the products, and a sum
    # that is not finite holds a value that is not, or overflows (a NaN z
    # makes it NaN): a test of the rare branch in two operations, which then
    # tests each point alone
    if real and (np.minimum.reduce(z.real) * x0 < -_INF_EDGE
                 or not math.isfinite(np.add.reduce(out))):
        nan = np.isnan(z.real)
        if nan.any():
            raise DomainError(f"F(z) requires z that is not NaN, got z={complex(z[nan][0])!r}")
        over = z.real * x0 < -_INF_EDGE
        over |= (~np.isfinite(np.exp(w[k])) & ~(near_k[k] | near_j[j])).any(axis=0)
        out[over] = math.inf


#: ITP constants (Oliveira & Takahashi 2021): truncation scale k1 = _ITP_K1/(hi-lo),
#: truncation exponent k2 = 2 (written w*w below), and n0 extra halvings of
#: slack.  n0 = 8 leaves the interpolation room where h spans many orders of
#: magnitude (the 'sz' smoothed shape reaches 1e100 on [0, 60]): there ITP
#: spends a slack of one halving in its first steps and bisects the rest
_ITP_K1 = 0.2
_ITP_N0 = 8
#: the tolerance is _ITP_REL max(|lo|, |hi|), far below one float spacing, so
#: the loop normally stops once the bracket is two adjacent floats
_ITP_REL = 2.0 ** -62


def _bisect(h, lo, hi, ylo=None, yhi=None):
    """ITP root of an increasing h on [lo, hi] (interpolate, truncate, project).

    ylo and yhi are h(lo) and h(hi) where the caller has them (``search_root``
    hands over the bracket it has seen); an end value not given is evaluated.
    Returns (root, h(lo), h(hi)); root is NaN when h has no sign change on
    the bracket or an endpoint value is NaN.  Each step takes the regula
    falsi point, moves it towards the midpoint by k1 w^2, and projects it
    onto the interval around the midpoint that keeps the step count within
    n0 = 8 of the halvings bisection needs to reach the tolerance.  A NaN
    interpolant falls back to the midpoint, and a NaN value of h counts as
    positive.  Stops once the bracket is below the tolerance or the midpoint
    no longer splits it, and at an exact zero of h (lo itself when h(lo) = 0,
    so an h that vanishes everywhere gives lo, as bisection did); the root is
    the midpoint of the final bracket.  h is evaluated only inside (lo, hi)
    after the ends.
    """
    if ylo is None:
        ylo = h(lo)
    if yhi is None:
        yhi = h(hi)
    if ylo > 0.0 or yhi < 0.0 or ylo != ylo or yhi != yhi:
        return math.nan, ylo, yhi
    a, b, ya, yb = lo, hi, ylo, yhi
    if ylo == 0.0:   # bisection converges to lo; also keeps ya < 0 below
        b = lo
    tol2 = 2.0 * _ITP_REL * max(abs(lo), abs(hi))
    if b - a > tol2:
        k1 = _ITP_K1 / (b - a)
        # eps 2^(n_max - j), halved after each step; n_max = n_1/2 + n0
        rad = 0.5 * tol2 * 2.0 ** (math.ceil(math.log2((b - a) / tol2)) + _ITP_N0)
        while b - a > tol2:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            w = b - a
            delta = k1 * w * w
            xf = (yb * a - ya * b) / (yb - ya)
            d = mid - xf
            if d > delta:
                x = xf + delta
            elif d < -delta:
                x = xf - delta
            else:
                x = mid
            r = rad - 0.5 * w
            rad *= 0.5
            if x - mid > r:
                x = mid + r
            elif mid - x > r:
                x = mid - r
            if x <= a or x >= b:   # the step rounded onto an end
                x = mid
            y = h(x)
            if y < 0.0:
                a, ya = x, y
            elif y == 0.0:
                a = b = x
            else:   # positive or NaN, as in bisection
                b, yb = x, y
    return 0.5 * (a + b), ylo, yhi


#: cap on the Newton steps of ``_p4_newton``; from u = 1 no quartic root of the
#: bundled rows or of a dense (b, lambda, J, phi) grid of every case takes more
#: than 9
_NEWTON_CAP = 40


def _p4_root(hlo, hhi, target, lam, lo, hi):
    """Root in x of an increasing h(x) = g(lam/(lam+x)) whose g vanishes where
    P(u) = target, from h(lo) = hlo and h(hi) = hhi; returns (root, hlo, hhi).

    The root is NaN when h has no sign change on [lo, hi] or an end value is
    NaN, as in ``_bisect``.  Otherwise it inverts P by ``_p4_newton`` from
    u = lam/(lam+lo), above the root.  The root is NaN too where that u is 0:
    an end value that underflowed to -0.0 passes the sign test, and no x
    has u = 0.
    """
    if hlo > 0.0 or hhi < 0.0 or hlo != hlo or hhi != hhi:
        return math.nan, hlo, hhi
    u = _p4_newton(target, lam / (lam + lo))
    return (lam / u - lam if u != 0.0 else math.nan), hlo, hhi


def _p4_newton(target, u):
    """The u where P(u) = target, by Newton's method from a u above it.

    P is increasing and convex for u >= 0, so every step decreases u and none
    passes the root but by rounding; the loop stops when a step no longer
    decreases u (or after ``_NEWTON_CAP`` steps).  Each step's u grows with
    the target, so the result does too, up to rounding.
    """
    for _ in range(_NEWTON_CAP):
        v = u - (_p4(u) - target) / (1.0 + u * (2.0 + u * (2.4 + 1.6 * u)))
        if not v < u:
            break
        u = v
    return u


#: the rounding floor of the snapped smoothed h (``snapped_fn``),
#: relative to the summed magnitudes of the terms h adds.  h's own arithmetic
#: (three sums and psi f(0)) rounds by at most 2 eps of them; the rest is the
#: error of each F, a few ulps of its size at most points.  Against a 90-digit
#: h, at 900 points near the roots of 150 weights the family search scored on
#: T2:principal and T8:chi2-principal-real rows, the float h was within 16 eps
#: of its terms at 94% of the points (4 eps at 81%; median 0.9, largest 139).
#: So this is where the sign of h turns to noise, not a rigorous error bound,
#: which the snap does not need: it only ranks search weights.  4 to 256 eps
#: give the same search results on seed-1 smoothed-regress, with 9.2 to 8.5
#: evaluations of h per scored root (12.1 unsnapped)
SNAP_EPS = 16.0 * 2.0 ** -52


def smoothed_fn(F, form, c1, psi, b, f0, array=False):
    """The smoothed repulsion function h of a weight with transform F.

    F maps real r to F(r); h works on floats or arrays as F does, and
    f0 = f(0).  ``form`` is the case's shape:
    'sz': h(x) = c1 (F(-x) - F(b-x)) - F(0) + psi f(0)
    'cc': h(x) = F(-b) - F(0) - F(x-b) + psi f(0)
    Both increase in x.  h's transform constants, F(0) and for 'cc' F(-b),
    come from one call of F at both points when F takes arrays (``array``,
    as ``dh.smoothed_h``'s does), else from a call at each.  The family
    search scores weights on ``snapped_fn``'s h instead.
    """
    points = (0.0, -b) if form == "cc" else (0.0,)
    F0, *Fmb = F(np.array(points)) if array else map(F, points)
    pf0 = psi * f0
    if form == "sz":
        def h(x):
            return c1 * (F(-x) - F(b - x)) - F0 + pf0
        return h
    base = Fmb[0] - F0 + pf0

    def h(x):
        return base - F(x - b)
    return h


def vectorized(h):
    """A builder's h at real x, a scalar or an array of floats, refusing a
    point where h is NaN with DomainError "h(x) requires x where h is not
    NaN": a NaN x, or an inf - inf of two terms past the exp range (the 'sz'
    F(-x) - F(b-x) at large x, the 'cc' F(-b) - F(x-b) at large b).  The
    vectorized h of ``dh.smoothed_h``, ``dh.poly_h`` and ``zfr.zfr_h``.  A
    sum that is not NaN holds no NaN, so the rule costs one reduction and
    the errstate that keeps inf - inf from warning: about 2.6 us of a 56 us
    smoothed h at 65 points (one Xeon core, NumPy 2.4)."""
    def checked(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            y = h(x)
        if math.isnan(np.add.reduce(y, axis=None)):
            nan = np.isnan(y)
            if nan.any():
                raise DomainError("h(x) requires x where h is not NaN, got "
                                  f"x={float(np.broadcast_to(x, nan.shape)[nan][0])!r}")
        return y
    return checked


def snapped_fn(code, form, c1, psi, b, f0, F0):
    """The family search's snapped h of ``smoothed_fn``'s h, for a family
    code and the case's shape ``form``; F0 = F(0), from the search's memo.

    h(x), float x, is exactly 0.0 wherever |h(x)| is below its rounding
    floor, ``SNAP_EPS`` times the magnitudes of the terms it adds ('sz':
    |c1| (|F(-x)| + |F(b-x)|) + |F(0)| + |psi f(0)|; 'cc': |F(-b)| + |F(0)|
    + |psi f(0)| + |F(x-b)|), and the exact h(x), bit for bit, elsewhere.
    The sign of h is rounding noise there, so a root solver that stops at an
    exact zero no longer halves the bracket through it: a search root stops
    at h's rounding floor, where a returned bound (solved on the exact h)
    resolves to adjacent floats.  h(0) needs at most one transform: 'sz'
    reads F(-0) from F(0), which has the same bits, and 'cc' reads F(-b) of
    its constant, evaluated here.  An infinite term makes the floor
    infinite, and h then keeps its value.

    h(x, True) is (h(x), the Newton step at x), read from the derivative
    kernel ``_f_real_scalar_d``, or None where that kernel declines; its
    value has the bits of h(x).  'cc' steps by v/h', v the unsnapped value;
    'sz' steps on log P = log C, P = c1 (F(-x) - F(b-x)) = v + C,
    C = F(0) - psi f(0), where both are positive, by log(1 + v/C) P/h',
    which is v/h' to first order at the root: P grows about like e^{x0 x},
    and plain Newton on it overshoots from below and crawls down from above
    by about 1/x0 a step.  The step is NaN where h' is not finite and > 0.
    """
    pf0 = psi * f0
    if form == "sz":
        m1, rest, C = abs(c1), abs(F0) + abs(pf0), F0 - pf0

        def h(x, slope=False):
            if slope:
                m = _f_real_scalar_d(code, -x)
                p = None if m is None else _f_real_scalar_d(code, b - x)
                if p is None:
                    return None
                (Fm, dFm), (Fp, dFp) = m, p
            else:
                Fm = F0 if x == 0.0 else _f_real_scalar(code, -x)
                Fp = _f_real_scalar(code, b - x)
            v = c1 * (Fm - Fp) - F0 + pf0
            y = 0.0 if abs(v) < SNAP_EPS * (m1 * (abs(Fm) + abs(Fp)) + rest) else v
            if not slope:
                return y
            d, P = c1 * (dFp - dFm), v + C
            if not 0.0 < d < math.inf:
                return y, math.nan
            return y, (math.log1p(v / C) * P if C > 0.0 and P > 0.0 else v) / d
        return h
    Fmb = _f_real_scalar(code, -b)
    base = Fmb - F0 + pf0
    rest = abs(Fmb) + abs(F0) + abs(pf0)

    def h(x, slope=False):
        if slope:
            got = _f_real_scalar_d(code, x - b)
            if got is None:
                return None
            Fx, dFx = got
        else:
            Fx = Fmb if x == 0.0 else _f_real_scalar(code, x - b)
        v = base - Fx
        y = 0.0 if abs(v) < SNAP_EPS * (rest + abs(Fx)) else v
        if not slope:
            return y
        d = -dFx
        return y, (v / d if 0.0 < d < math.inf else math.nan)
    return h


#: Newton steps ``search_root`` takes before it hands the solve to ITP
_NEWTON_STEPS = 8
#: a Newton step below this fraction of x ends ``search_root``'s steps once h
#: was seen on both sides of the root.  Where h's rounding noise exceeds the
#: snap floor (search weights with alpha > 1.3, whose pair terms cancel in F)
#: the steps circle the root at 450-2800 ulps, so a stop at a few ulps never
#: comes
_NEWTON_REL = 2.0 ** -40


def search_root(h, hi, guess):
    """The family search's root on [0, hi] of an increasing snapped h with
    the two modes of ``snapped_fn``'s, or NaN where the weight bounds
    nothing.

    With no guess in (0, hi) it is ITP's (``_bisect``) on [0, hi].  From a
    guess it takes safeguarded Newton steps (rtsafe, Press et al., Numerical
    Recipes, section 9.4), each from h(x, True), the snapped value and its
    step.  Each value narrows the bracket, whose ends 0 and hi start unseen.
    A step that leaves the bracket, or does not halve the step before it,
    becomes a bisection step, after a look at the end it heads past if that
    is unseen: h(0) > 0 or h(hi) <= 0 there means no root.  The solve stops
    at an exact zero of h, moved by the step from the unsnapped value if
    that stays in the bracket, or at a step below ``_NEWTON_REL`` of x once
    both ends are seen.  Where h(x, True) is None, a value is not finite, or
    after ``_NEWTON_STEPS`` steps, the solve goes to ITP on the bracket
    seen, which looks at an end it has not seen, 0 or hi, and fails where
    h(0) > 0 or h(hi) < 0 as on [0, hi].  No point is evaluated twice,
    except where a value was not finite (ITP may land on that point again).

    A root whose h is 0 at the top end of the bracket its solve used is NaN:
    the sign of h is noise up there, as for the 'sz' h at b = 0, the
    constant psi f(0) - F(0) that the floor of its F(-x) terms exceeds at
    large x.  Otherwise the root is NaN unless h(lo) <= 0 < h(hi) at the
    ends of the final bracket, as for ``_bisect``.
    """
    lo, ylo, yhi = 0.0, None, None
    if guess is not None and lo < guess < hi:
        x, dx = guess, hi - lo
        for _ in range(_NEWTON_STEPS):
            got = h(x, True)
            if got is None:
                break
            y, step = got
            if y == 0.0:
                if lo < x - step < hi:
                    x -= step
                return x if (h(hi) if yhi is None else yhi) > 0.0 else math.nan
            if not abs(y) < math.inf:
                break
            if y < 0.0:
                lo, ylo = x, y
            else:
                hi, yhi = x, y
            xn = x - step
            if not lo < xn < hi or abs(step) > 0.5 * abs(dx):
                if y > 0.0 and ylo is None:
                    ylo = h(lo)
                    if not ylo < 0.0:
                        return lo if ylo == 0.0 else math.nan
                elif y < 0.0 and yhi is None:
                    yhi = h(hi)
                    if not yhi > 0.0:
                        return math.nan
                xn = 0.5 * (lo + hi)
            dx, x = xn - x, xn
            if abs(dx) <= _NEWTON_REL * abs(x) and ylo is not None and yhi is not None:
                return x
    root, _, yhi = _bisect(h, lo, hi, ylo, yhi)
    return math.nan if yhi == 0.0 else root


def smoothed_root(h, lo, hi):
    """Root of an increasing scalar h on [lo, hi], as ``_bisect``: one built
    by ``smoothed_fn`` from a scalar F, or the order >= 6 zero-free-region
    function, which has the same terms.

    The caller builds h, so it can reuse it (for the residual at the root)
    without evaluating F(0) again.
    """
    return _bisect(h, lo, hi)


#: P(1) of the quartic ``_p4``, the value every quartic-method inequality reads
P1 = 3.2


def _p4(u):
    """The quartic P(u) = u + u^2 + 0.8 u^3 + 0.4 u^4, P(1) = ``P1``, at any u or array."""
    return u * (1.0 + u * (1.0 + u * (0.8 + 0.4 * u)))


def poly_consts(slot, lam, b, psi):
    """(P_b, stationary) of the quartic-method repulsion function at fixed
    lam, b: P_b = P(lam/(lam+b)), and the J > 0 where the root of
    g(J, .) (``poly_fn``) is stationary in J.  slot 0: known value on the
    (J^2 + 1/2) term, unknown on the 2J term; slot 1: the reverse.

    With A = P(1) - P_b, slot 0 puts the root at
    P(u) = [(J^2 + 1/2) A + psi lam (J+1)^2]/(2J), convex in J with its
    minimum (the largest root) at J^2 = (A/2 + psi lam)/(A + psi lam).
    Slot 1 puts it at P(u) = P(1) - (2J P_b - psi lam (J+1)^2)/(J^2 + 1/2),
    stationary where (psi lam - P_b) J^2 + (psi lam/2) J + (P_b - psi lam)/2
    = 0; the roots' product is -1/2, so one is positive (none when the
    leading coefficient vanishes: the linear root is J = 0).  Between the
    stationary points the root is monotone in J wherever it exists.
    """
    known = _p4(lam / (lam + b))
    if slot == 0:
        A = P1 - known
        den = A + psi * lam
        return known, (math.sqrt((0.5 * A + psi * lam) / den),) if den > 0.0 else ()
    c2, c1 = psi * lam - known, 0.5 * psi * lam
    q = c1 + math.sqrt(c1 * c1 + 2.0 * c2 * c2)
    return known, () if c2 == 0.0 else (c2 / q if c2 > 0.0 else -q / (2.0 * c2),)


def poly_target(slot, lam, known, psi, J):
    """The value of P where ``poly_fn``'s g(J, .) vanishes, from P_b = known
    (``poly_consts``): the root's P(u) of ``poly_consts``' docstring."""
    if slot == 0:
        return ((J * J + 0.5) * (P1 - known) + psi * (J + 1.0) ** 2 * lam) / (2.0 * J)
    return P1 - (2.0 * J * known - psi * (J + 1.0) ** 2 * lam) / (J * J + 0.5)


def poly_fn(slot, lam, b, psi):
    """The quartic-method repulsion function at fixed lam, b, for every J.

    Returns (g, target, stationary): g(J, u) is the function of
    u = lam/(lam+x), target(J) the value of P where g(J, .) vanishes
    (``poly_target``), and stationary the J > 0 where that root is
    stationary in J (``poly_consts``, slot as there).  g decreases in u, so
    g(J, lam/(lam+x)) increases in x.  P_b = P(lam/(lam+b)) is formed once
    here, for all three.
    """
    known, stationary = poly_consts(slot, lam, b, psi)
    if slot == 0:
        A = P1 - known

        def g(J, u):
            return (J * J + 0.5) * A - 2.0 * J * _p4(u) + psi * (J + 1.0) ** 2 * lam
    else:
        def g(J, u):
            return ((J * J + 0.5) * (P1 - _p4(u)) - 2.0 * J * known
                    + psi * (J + 1.0) ** 2 * lam)
    return g, functools.partial(poly_target, slot, lam, known, psi), stationary


def poly_root(g, target, J, lam, lo, hi):
    """Root in x of g(J, lam/(lam+x)) for (g, target) built by ``poly_fn``,
    as ``_p4_root``."""
    return _p4_root(g(J, lam / (lam + lo)), g(J, lam / (lam + hi)), target(J), lam, lo, hi)


def zfr_fn(c0, c1, B, lam, phi):
    """The zero-free-region function c0 P(1) - c1 P(u) + B phi lam as g(u),
    and the value of P where it vanishes, as (g, target)."""
    const = c0 * P1 + B * phi * lam

    def g(u):
        return const - c1 * _p4(u)

    return g, const / c1


def zfr_root(c0, c1, B, lam, phi, lo, hi):
    """Root in x of ``zfr_fn``'s g(lam/(lam+x)), as ``_p4_root``."""
    g, target = zfr_fn(c0, c1, B, lam, phi)
    return _p4_root(g(lam / (lam + lo)), g(lam / (lam + hi)), target, lam, lo, hi)


def p4_combo_min(A, B, C, a, b, c, ts):
    """Min over the grid ts of Re{C P(a/(c+it)) + B P(a/(b+it)) - A P(a/(a+it))}.

    Returns (minimum, t at the first minimum).
    """
    ts = np.asarray(ts, dtype=np.float64)
    w = (C * _p4(a / (c + 1j * ts)) + B * _p4(a / (b + 1j * ts))
         - A * _p4(a / (a + 1j * ts))).real
    i = int(np.argmin(w))
    return float(w[i]), float(ts[i])


#: public name of F(r), the one ``TrialFunction.laplace_real`` calls; the root
#: kernels above call the private one, so a profiler that replaces this
#: attribute sees only calls from outside
f_real_scalar = _f_real_scalar
