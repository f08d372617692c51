"""Scalar numeric kernels in plain Python and NumPy.

Every bound ends in a monotone root solve, and every solve here goes through
one bracketed bisection, ``_bisect``.  The named root kernels
(``smoothed_root``, ``poly_root``, ``zfr_root``) only build the case's
increasing function ``h`` and hand it to ``_bisect``; they return
``(root, h(lo), h(hi))`` with a NaN root when ``h`` has no sign change, so
callers can tell which way the inequality failed.  ``f_real_scalar`` is the
closed-form transform ``F(r)`` at one real point, and ``p4_combo_min`` the
grid minimum of the quartic positivity combination.

Trial functions are passed to the kernels in a flattened "family code"
(see ``trial_functions``): the triangle needs only its support endpoint, the
autocorrelation family ships per-pair complex constants of its closed-form
transform.  Closed forms switch to series below ``SMALL_W`` = 1e-2, where the
direct expressions would lose more than half their digits to cancellation;
the series carry enough terms to stay at ~1e-15 relative error there.
"""

import cmath
import math

import numpy as np


def backend():
    """Name of the kernel backend; there is one, plain NumPy/Python."""
    return "numpy"


KIND_TRIANGLE = 0
KIND_AUTOCORR = 1

#: series-switch threshold for the removable singularities of the closed forms
SMALL_W = 1e-2

#: number of moment constants (M_1 .. M_7) carried per autocorrelation pair
N_MOMENTS = 7


def _f_real_scalar(kind, x0, f0, F0, coef, gj, gk, K, M, r):
    """F(r) for real r, matching the vectorized closed forms exactly.

    Arguments past the exp overflow range (-r x0 > 690, or a pair's
    e^{(g_k - r) x0} overflowing) return +inf, as f >= 0, instead of letting
    exp raise: the solvers' bracket-shrinking relies on a value coming back.
    """
    if r < 0.0 and -r * x0 > 690.0:
        return math.inf
    if kind == KIND_TRIANGLE:
        w = x0 * r
        if abs(w) < SMALL_W:
            return x0 * x0 * (1.0 / 2.0 - w / 6.0 + w * w / 24.0 - w ** 3 / 120.0
                              + w ** 4 / 720.0 - w ** 5 / 5040.0 + w ** 6 / 40320.0
                              - w ** 7 / 362880.0 + w ** 8 / 3628800.0)
        return (w - 1.0 + math.exp(-w)) / (r * r)
    acc = 0.0
    for i in range(coef.shape[0]):
        bb = gj[i] + r
        if abs(bb) * x0 < SMALL_W:
            bp = 1.0 + 0.0j
            phi = 0.0 + 0.0j
            sign = 1.0
            fact = 1.0
            for n in range(N_MOMENTS):
                phi += sign * bp * M[i, n] / fact
                bp *= bb
                sign = -sign
                fact *= n + 2.0
        else:
            cc = gk[i] - r
            wc = cc * x0
            if abs(wc) < SMALL_W:
                E = x0 * (1.0 + wc / 2.0 + wc ** 2 / 6.0 + wc ** 3 / 24.0
                          + wc ** 4 / 120.0 + wc ** 5 / 720.0 + wc ** 6 / 5040.0
                          + wc ** 7 / 40320.0 + wc ** 8 / 362880.0)
            else:
                try:
                    E = (cmath.exp(wc) - 1.0) / cc
                except OverflowError:
                    return math.inf
            phi = (K[i] - E) / bb
        acc += coef[i] * phi.real
    return acc


def _bisect(h, lo, hi, iters):
    """Bisection root of an increasing h on [lo, hi].

    Returns (root, h(lo), h(hi)); root is NaN when h has no sign change on
    the bracket or an endpoint value is NaN.  Halves at most ``iters`` times
    and stops early once the midpoint no longer splits the bracket.
    """
    hlo = h(lo)
    hhi = h(hi)
    if hlo > 0.0 or hhi < 0.0 or hlo != hlo or hhi != hhi:
        return math.nan, hlo, hhi
    a, b = lo, hi
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if h(mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), hlo, hhi


def smoothed_root(code, form, c1, psi, b, lo, hi, iters):
    """Root of the smoothed repulsion function for a family code.

    form 0: h(x) = c1 (F(-x) - F(b-x)) - F(0) + psi f(0)
    form 1: h(x) = F(-b) - F(0) - F(x-b) + psi f(0)
    Both increase in x.
    """
    f0, F0 = code[2], code[3]
    if form == 0:
        def h(x):
            return c1 * (_f_real_scalar(*code, -x) - _f_real_scalar(*code, b - x)) \
                - F0 + psi * f0
    else:
        base = _f_real_scalar(*code, -b) - F0 + psi * f0

        def h(x):
            return base - _f_real_scalar(*code, x - b)
    return _bisect(h, lo, hi, iters)


def poly_root(slot, lam, J, b, psi, lo, hi, iters):
    """Root of the quartic-method repulsion function.

    slot 0: known value on the (J^2 + 1/2) term, unknown on the 2J term;
    slot 1: the reverse.
    """
    def h(x):
        if slot == 0:
            u1 = lam / (lam + b)
            u2 = lam / (lam + x)
        else:
            u1 = lam / (lam + x)
            u2 = lam / (lam + b)
        p1 = u1 * (1.0 + u1 * (1.0 + u1 * (0.8 + 0.4 * u1)))
        p2 = u2 * (1.0 + u2 * (1.0 + u2 * (0.8 + 0.4 * u2)))
        return (J * J + 0.5) * (3.2 - p1) - 2.0 * J * p2 + psi * (J + 1.0) ** 2 * lam

    return _bisect(h, lo, hi, iters)


def zfr_root(c0, c1, B, lam, phi, lo, hi, iters):
    """Root of c0 P(1) - c1 P(lam/(lam+x)) + B phi lam."""
    const = c0 * 3.2 + B * phi * lam

    def h(x):
        u = lam / (lam + x)
        return const - c1 * (u * (1.0 + u * (1.0 + u * (0.8 + 0.4 * u))))

    return _bisect(h, lo, hi, iters)


def p4_combo_min(A, B, C, a, b, c, ts):
    """Min over the grid ts of Re{C P(a/(c+it)) + B P(a/(b+it)) - A P(a/(a+it))}.

    Returns (minimum, t at the first minimum).
    """
    def p4(u):
        return u * (1.0 + u * (1.0 + u * (0.8 + 0.4 * u)))
    ts = np.asarray(ts, dtype=np.float64)
    w = (C * p4(a / (c + 1j * ts)) + B * p4(a / (b + 1j * ts))
         - A * p4(a / (a + 1j * ts))).real
    i = int(np.argmin(w))
    return float(w[i]), float(ts[i])


#: public name of F(r); the root kernels above call the private one, so a
#: profiler that replaces this attribute sees only calls from outside
f_real_scalar = _f_real_scalar

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_C = np.empty(0, dtype=np.complex128)
_EMPTY_M = np.empty((0, N_MOMENTS), dtype=np.complex128)


def triangle_code(x0):
    """Family code of the triangle weight max(x0 - t, 0)."""
    return (KIND_TRIANGLE, float(x0), float(x0), float(x0) ** 2 / 2.0,
            _EMPTY_F, _EMPTY_C, _EMPTY_C, _EMPTY_C, _EMPTY_M)
