"""Numeric kernels in plain Python and NumPy.

The scalar transform, the pair constants and the root solver are plain
Python floats; NumPy serves the array transform ``f_array``, ``E`` and the
grid minimum ``p4_combo_min``.  The family codes they read are built in
Python too (``trial_functions.autocorrelation_code``).

Every bound ends in a monotone root solve.  The smoothed roots, and the
crossings in J of the quartic search, go through one bracketed ITP solver
(interpolate, truncate, project; Oliveira & Takahashi 2021), ``_bisect``:
42% of bisection's evaluations of ``h`` over a set of 280 smoothed solves,
and never more steps than the halvings down to its tolerance plus n0 = 8.
Given a guess near the root (the family search passes its last root), it
starts from a bracket around the guess, which saves evaluations and never
changes whether or how a solve fails.  It stops at an exact zero of h, so
the family search, which only ranks its roots, hands it a snapped h
(``smoothed_fn(snap=True)``) that is exactly 0 below h's rounding floor
(``SNAP_EPS``): a search root stops there, 8.8 evaluations of h per scored
root on seed-1 smoothed-regress where adjacent floats took 12.1.  Returned
bounds are solved on the exact h and still resolve to adjacent floats.
The quartic roots need no bracket search: each is P(u) = t for the fixed
convex quartic P in u = lam/(lam+x), which ``_p4_root`` inverts by Newton's method from above,
in at most 9 steps (about 6 evaluations of P per bundled quartic row,
where bisection in x took 65.6 of ``h``).  Each inequality's bracketing
function is written once, by a builder whose arithmetic works on floats and
on arrays: ``smoothed_fn`` returns the smoothed ``h(x)``, and ``poly_fn`` and
``zfr_fn`` return the quartic ones as functions of u, with the value t of
P at their root; ``poly_fn`` builds at fixed lam and b, for every J.  The
named root kernels (``smoothed_root``, ``poly_root``, ``zfr_root``) take or
build those functions (``smoothed_root`` and ``poly_root`` take them built,
so a caller reuses them); they return ``(root, h(lo), h(hi))`` with a NaN
root when ``h`` has no sign change, so callers can tell which way the
inequality failed.  The vectorized ``h`` of the solver modules and the
solvers' residuals come from the same builders.
``p4_combo_min`` is the grid minimum of the quartic positivity combination.

Trial functions reach this module, its one reader, as a "family code" (see
``trial_functions``) ``(x0, folded)``: the support endpoint and one tuple
``(c, g_j, g_k, K, far)`` per pair of generator exponents, kept once
per conjugate pair ``(g_j, g_k)``, ``(conj g_j, conj g_k)`` with ``c``
doubled when the two differ: a cosine-modulated generator has 5 folded
pairs of 9, one with ``c0 = 0`` 2 of 4, and a plain one its 1.  All are
plain Python numbers and bools, and a code never changes.  ``K`` is
E(x0; g_j + g_k) (``exp_quotient``), and ``far`` says both |Im g_j| x0 and
|Im g_k| x0 are at least ``SMALL_W``.  Every built-in weight, the triangle
included, is an autocorrelation, so neither evaluator branches on the
family.  The transform ``F`` is ``f_real_scalar`` at one real point and
``f_array`` at real or complex points, scalar or array; at a real point the
terms of two conjugate pairs are conjugates, and off the real axis
``f_array`` evaluates the dropped one as ``conj T(conj z)``.  Each pair term
T = (K - E(x0; g_k - z))/(g_j + z) is the direct form except where
|g_j + z| x0 or |g_k - z| x0 is below ``SMALL_W`` = 1e-2, near coincident
nodes of the divided difference it is, where the direct form would lose
more than half its digits; both evaluators hand those few terms (0.7-0.8%
of the scalar pair evaluations of the benchmark's smoothed and density
items) to one routine, ``pair_near``, within 2.2 eps (1 + |u|) |T| of 50
digits at the tests' real points, u = (g_j + g_k) x0.
``E`` is the array ``(e^{ax} - 1)/a`` the weight is built from.  The two
transforms agree to 2e-13 relative, not to the bit, as Python and NumPy
complex arithmetic differ in the last bits.  Just above the switch the
direct form loses some digits: against a 50-digit reference the pair sums
are off by up to 4.3e-12 relative (the box of ``x0 = 0.7``, just off the
real axis).
"""

import cmath
import math

import numpy as np


def backend():
    """Name of the kernel backend; there is one, plain NumPy/Python."""
    return "numpy"


#: series-switch threshold for the removable singularities of the closed forms
SMALL_W = 1e-2

#: radius in u and v inside which ``pair_near`` sums its three-node series
RHO = 1.0

#: coefficients 1/(m+1)!, m = 0..8, of the series of (e^w - 1)/w
_E_SERIES = tuple(1.0 / math.factorial(m + 1) for m in range(9))

#: coefficients 1/(k+2)!, k = 1..17, of the three-node series of ``pair_near``;
#: at |u|, |v| < RHO the omitted tail is below eps/5 of the sum
_DD_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(1, 18))


def _e1(w):
    """(e^w - 1)/w for |w| < SMALL_W: its 9-term series, by Horner's rule."""
    e = 0.0
    for coeff in reversed(_E_SERIES):
        e = e * w + coeff
    return e


def exp_quotient(a, s):
    """K = E(s; a) = (e^{as} - 1)/a at one complex a, in Python floats.

    s at a = 0; inside the disc |a s| < SMALL_W, s times nine terms of the
    series of (e^w - 1)/w, w = a s, each w^m/m! over m + 1, summed smallest
    first, the order that has always formed K (``_e1`` sums the same series
    faster, to other bits); elsewhere the quotient written out by Smith's
    method: with (p, q) = (1, Im a/Re a) where |Re a| >= |Im a|, else
    (Re a/Im a, 1), it is ((Re x p + Im x q) scl, (Im x p - Re x q) scl),
    x = e^{as} - 1 and scl one over the denominator.  Python's own complex
    ``/`` rounds differently in the last bit on 42% of random quotients, and
    one ulp of K moves what the family searches find (the alpha of a searched
    T2:quadratic weight at b = 1e-7, say), so the written-out quotient keeps
    every code, and so every bound, as it has been.  Raises OverflowError
    when e^{as} or K is not finite.
    """
    if a == 0:
        return complex(s)
    w = a * s
    if abs(w) < SMALL_W:   # w^m/m! over m + 1, smallest first
        terms, t = [], 1.0
        for m in range(9):
            terms.append(t)
            t = t * w / (m + 1)
        acc = 0j
        for m in reversed(range(9)):
            acc += terms[m] / (m + 1)
        return s * acc
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


def _f_real_scalar(code, r):
    """F(r) at one real r, from the folded conjugate pairs of the family code.

    For real r the terms of a pair and of its conjugate pair are complex
    conjugates, so each folded pair stands for both with a doubled
    coefficient and only its real part is summed.  The constants are plain
    Python numbers, so the loop never creates a NumPy scalar.  Arguments past
    the exp overflow range (-r x0 > 690, or a pair's e^{(g_k - r) x0}
    overflowing) return +inf, as f >= 0, instead of letting exp raise: the
    solvers' bracket-shrinking relies on a value coming back.  The value is a
    Python float, so the root solver's arithmetic stays on Python floats.
    A pair term near coincident nodes, |g_j + r| x0 or |g_k - r| x0 below
    SMALL_W, comes from ``pair_near``, and every other one from the direct
    form (K - (e^w - 1)/A)/b.  A pair flagged ``far`` skips both tests: at
    real r, |g_j + r| and |g_k - r| are at least the imaginary parts that the
    flag bounds, so the tests would fail there anyway.
    """
    x0, folded = code
    if r < 0.0 and -r * x0 > 690.0:
        return math.inf
    acc = 0.0
    for c, gj, gk, K, far in folded:
        b = gj + r
        a = gk - r
        w = a * x0
        if not far and (abs(b) * x0 < SMALL_W or abs(w) < SMALL_W):
            phi = pair_near(K, gj, gk, r, x0)
        else:
            try:
                e = (cmath.exp(w) - 1.0) / a
            except OverflowError:
                return math.inf
            phi = (K - e) / b
        acc += c * phi.real
    return acc


def E(x, a):
    """(e^{a x} - 1)/a elementwise, for real x and complex a broadcast together.

    Where |a x| < SMALL_W it is x times the 9-term series of (e^w - 1)/w in
    w = a x, summed only on those elements; where w = 0 it is x, which is
    also what the series gives there.
    """
    w = np.asarray(a * x)
    small = np.abs(w) < SMALL_W
    with np.errstate(over="ignore", invalid="ignore"):
        out = (np.exp(w) - 1.0) / np.where(small, 1.0, a)
    if small.any():
        zero = w == 0
        out = np.where(zero, x, out)
        small &= ~zero
    if small.any():
        ws = w[small]
        series = np.zeros_like(ws)
        wp = np.ones_like(ws)
        for coeff in _E_SERIES:
            series += coeff * wp
            wp *= ws
        out[small] = np.broadcast_to(x, w.shape)[small] * series
    return out


def f_array(code, z):
    """F(z) of a family code at real or complex z, scalar or array.

    At real z each folded pair adds c Re T(z), T its term.  Off the real axis
    a pair with a complex exponent adds c/2 (T(z) + conj T(conj z)), both in
    one stacked evaluation, and a pair of real exponents, its own conjugate,
    adds c T(z).  A scalar z gives a complex, an array a complex array of its
    shape.  Each term is the direct form (K - (e^w - 1)/A)/b, w = A x0, and
    ``pair_near`` overwrites the few elements near coincident nodes, where
    |b| x0 or |w| is below SMALL_W.  A value past the float range is inf,
    with no warning, as in ``f_real_scalar``.
    """
    x0, folded = code
    z = np.asarray(z)
    scalar = z.ndim == 0
    real = not np.iscomplexobj(z) or not z.imag.any()
    z = np.atleast_1d(z.astype(complex))
    out = np.zeros(z.shape, dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c, gj, gk, K, _ in folded:
            own = real or (gj.imag == 0.0 and gk.imag == 0.0)
            zs = z if own else np.stack([z, z.conj()])
            b = gj + zs
            A = gk - zs
            w = A * x0
            phi = (K - (np.exp(w) - 1.0) / A) / b
            for i in np.flatnonzero((np.abs(b) * x0 < SMALL_W) | (np.abs(w) < SMALL_W)):
                phi.flat[i] = pair_near(K, gj, gk, complex(zs.flat[i]), x0)
            if not own:
                phi = 0.5 * (phi[0] + phi[1].conj())
            out += c * (phi.real if real else phi)
    return complex(out[0]) if scalar else out


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


def _guess_bracket(h, lo, hi, guess):
    """The bracket (a, b, h(a), h(b)) grown around guess inside [lo, hi].

    Starts at guess -+ 10% of |guess| and widens the side the root lies
    beyond 16-fold per step, keeping the other end as the new inner end,
    until h changes sign, that side reaches lo or hi, or a value is NaN.
    """
    step = 0.1 * abs(guess)
    a, b = max(lo, guess - step), min(hi, guess + step)
    ya, yb = h(a), h(b)
    while ya > 0.0 and a > lo or yb < 0.0 and b < hi:
        step *= 16.0
        if ya > 0.0:   # the root lies below a
            b, yb = a, ya
            a = max(lo, guess - step)
            ya = h(a)
        else:   # the root lies above b
            a, ya = b, yb
            b = min(hi, guess + step)
            yb = h(b)
    return a, b, ya, yb


def _bisect(h, lo, hi, guess=None):
    """ITP root of an increasing h on [lo, hi] (interpolate, truncate, project).

    Returns (root, h(lo), h(hi)); root is NaN when h has no sign change on
    the bracket or an endpoint value is NaN.  Each step takes the regula
    falsi point, moves it towards the midpoint by k1 w^2, and projects it
    onto the interval around the midpoint that keeps the step count within
    n0 = 8 of the halvings bisection needs to reach the tolerance.  A NaN
    interpolant falls back to the midpoint, and a NaN value of h counts as
    positive.  Stops once the bracket is below the tolerance or the midpoint
    no longer splits it, and at an exact zero of h (lo itself when h(lo) = 0,
    so an h that vanishes everywhere gives lo, as bisection did); the root is
    the midpoint of the final bracket.

    ``guess``, a point near the root (the last root of a search, say),
    changes how many evaluations the solve takes, and the root only within
    the float noise of h near it (the loop takes another path through the
    points where the sign of h flickers).  The solver first grows a bracket
    around it (``_guess_bracket``); when h changes sign there it runs the
    same loop on that bracket and returns h at its ends in place of h(lo)
    and h(hi).  Otherwise (no sign change on [lo, hi], a NaN value, h = 0 at
    both ends) it solves on [lo, hi] as without a guess, reusing an end
    value the growth found, so the failure modes are the same; only a NaN
    at lo or hi goes unseen when the bracket around the guess holds the
    sign change.  A guess outside [lo, hi], 0 or NaN is ignored.
    """
    if guess is not None and lo <= guess <= hi and guess != 0.0:
        a, b, ya, yb = _guess_bracket(h, lo, hi, guess)
        if ya <= 0.0 <= yb and ya != yb:   # a sign change, not a flat zero
            lo, hi, ylo, yhi = a, b, ya, yb
        else:
            ylo = ya if a == lo else h(lo)
            yhi = yb if b == hi else h(hi)
    else:
        ylo, yhi = h(lo), h(hi)
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


#: cap on the Newton steps of ``_p4_root``; from u = 1 no quartic root of the
#: bundled rows or of a dense (b, lambda, J, phi) grid of every case takes more
#: than 9
_NEWTON_CAP = 40


def _p4_root(hlo, hhi, target, lam, lo, hi):
    """Root in x of an increasing h(x) = g(lam/(lam+x)) whose g vanishes where
    P(u) = target, from h(lo) = hlo and h(hi) = hhi; returns (root, hlo, hhi).

    The root is NaN when h has no sign change on [lo, hi] or an end value is
    NaN, as in ``_bisect``.  Otherwise it inverts P by Newton's method in u,
    started from u = lam/(lam+lo), above the root: P is increasing and convex
    for u >= 0, so every step decreases u and none passes the root but by
    rounding, and the loop stops when a step no longer decreases u (or after
    ``_NEWTON_CAP`` steps).
    """
    if hlo > 0.0 or hhi < 0.0 or hlo != hlo or hhi != hhi:
        return math.nan, hlo, hhi
    u = lam / (lam + lo)
    for _ in range(_NEWTON_CAP):
        v = u - (_p4(u) - target) / (1.0 + u * (2.0 + u * (2.4 + 1.6 * u)))
        if not v < u:
            break
        u = v
    return lam / u - lam, hlo, hhi


#: the rounding floor of the snapped smoothed h (``smoothed_fn(snap=True)``),
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


def smoothed_fn(F, form, c1, psi, b, f0, snap=False):
    """The smoothed repulsion function h of a weight with transform F.

    F maps real r to F(r); h works on floats or arrays as F does.  f0 = f(0).
    form 0: h(x) = c1 (F(-x) - F(b-x)) - F(0) + psi f(0)
    form 1: h(x) = F(-b) - F(0) - F(x-b) + psi f(0)
    Both increase in x.

    With ``snap`` (float x only; the family search's scores), h(x) is exactly
    0.0 wherever |h(x)| is below its rounding floor, ``SNAP_EPS`` times the
    magnitudes of the terms it adds (form 0: |c1| (|F(-x)| + |F(b-x)|) + |F(0)|
    + |psi f(0)|; form 1: |F(-b)| + |F(0)| + |psi f(0)| + |F(x-b)|), and the
    exact h(x), bit for bit, elsewhere.  The sign of h is rounding noise
    there, so ``_bisect``, which stops at an exact zero, no longer halves the
    bracket through it: a search root stops at h's rounding floor, where a
    returned bound (solved without the snap) resolves to adjacent floats.
    Form 1 reads h(0) = F(-b) - F(0) + psi f(0) - F(-b) from the F(-b) of its
    constant, with no transform call.  An infinite term makes the floor
    infinite, and h then keeps its value.
    """
    F0 = F(0.0)
    pf0 = psi * f0
    if form == 0:
        if not snap:
            def h(x):
                return c1 * (F(-x) - F(b - x)) - F0 + pf0
            return h
        m1, rest = abs(c1), abs(F0) + abs(pf0)

        def h(x):
            Fm, Fp = F(-x), F(b - x)
            v = c1 * (Fm - Fp) - F0 + pf0
            return 0.0 if abs(v) < SNAP_EPS * (m1 * (abs(Fm) + abs(Fp)) + rest) else v
        return h
    Fmb = F(-b)
    base = Fmb - F0 + pf0
    if not snap:
        def h(x):
            return base - F(x - b)
        return h
    rest = abs(Fmb) + abs(F0) + abs(pf0)

    def h(x):
        Fx = Fmb if x == 0.0 else F(x - b)
        v = base - Fx
        return 0.0 if abs(v) < SNAP_EPS * (rest + abs(Fx)) else v
    return h


def smoothed_root(h, lo, hi, guess=None):
    """Root of an h built by ``smoothed_fn`` from a scalar F, as ``_bisect``.

    The caller builds h, so it can reuse it (for the residual at the root)
    without evaluating F(0) again.
    """
    return _bisect(h, lo, hi, guess)


def _p4(u):
    """The quartic P(u) = u + u^2 + 0.8 u^3 + 0.4 u^4, P(1) = 3.2, at any u or array."""
    return u * (1.0 + u * (1.0 + u * (0.8 + 0.4 * u)))


def poly_fn(slot, lam, b, psi):
    """The quartic-method repulsion function at fixed lam, b, for every J.

    Returns (g, target): g(J, u) is the function of u = lam/(lam+x), and
    target(J) the value of P where g(J, .) vanishes.  slot 0: known value on
    the (J^2 + 1/2) term, unknown on the 2J term; slot 1: the reverse.  g
    decreases in u, so g(J, lam/(lam+x)) increases in x.  P(lam/(lam+b)) is
    formed once here, for all J.
    """
    known = _p4(lam / (lam + b))
    if slot == 0:
        A = 3.2 - known

        def g(J, u):
            return (J * J + 0.5) * A - 2.0 * J * _p4(u) + psi * (J + 1.0) ** 2 * lam

        def target(J):
            return ((J * J + 0.5) * A + psi * (J + 1.0) ** 2 * lam) / (2.0 * J)
    else:
        def g(J, u):
            return ((J * J + 0.5) * (3.2 - _p4(u)) - 2.0 * J * known
                    + psi * (J + 1.0) ** 2 * lam)

        def target(J):
            return 3.2 - (2.0 * J * known - psi * (J + 1.0) ** 2 * lam) / (J * J + 0.5)
    return g, target


def _poly_j_stationary(slot, lam, b, psi):
    """The J > 0 where the root of ``poly_fn`` is stationary, at fixed lam, b.

    With A = 3.2 - P_b, P_b = P(lam/(lam+b)), slot 0 puts the root at
    P(u) = [(J^2 + 1/2) A + psi lam (J+1)^2]/(2J), convex in J with its
    minimum (the largest root) at J^2 = (A/2 + psi lam)/(A + psi lam).
    Slot 1 puts it at P(u) = 3.2 - (2J P_b - psi lam (J+1)^2)/(J^2 + 1/2),
    stationary where (psi lam - P_b) J^2 + (psi lam/2) J + (P_b - psi lam)/2
    = 0; the roots' product is -1/2, so one is positive (none when the
    leading coefficient vanishes: the linear root is J = 0).  Between the
    returned points the root is monotone in J wherever it exists.
    """
    known = _p4(lam / (lam + b))
    if slot == 0:
        A = 3.2 - known
        den = A + psi * lam
        return (math.sqrt((0.5 * A + psi * lam) / den),) if den > 0.0 else ()
    c2, c1 = psi * lam - known, 0.5 * psi * lam
    if c2 == 0.0:
        return ()
    q = c1 + math.sqrt(c1 * c1 + 2.0 * c2 * c2)
    return (c2 / q if c2 > 0.0 else -q / (2.0 * c2),)


def poly_root(g, target, J, lam, lo, hi):
    """Root in x of g(J, lam/(lam+x)) for (g, target) built by ``poly_fn``,
    as ``_p4_root``."""
    return _p4_root(g(J, lam / (lam + lo)), g(J, lam / (lam + hi)), target(J), lam, lo, hi)


def zfr_fn(c0, c1, B, lam, phi):
    """The zero-free-region function c0 P(1) - c1 P(u) + B phi lam as g(u),
    and the value of P where it vanishes, as (g, target)."""
    const = c0 * 3.2 + B * phi * lam

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


#: public name of F(r), the one ``TrialFunction.laplace`` calls; the root
#: kernels above call the private one, so a profiler that replaces this
#: attribute sees only calls from outside
f_real_scalar = _f_real_scalar
