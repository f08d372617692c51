"""Compactly supported trial weights and their Laplace transforms.

A usable weight f must be non-negative, supported in [0, x0), twice
differentiable there, and its Laplace transform F(z) = int_0^inf e^{-zt} f(t) dt
must have non-negative real part on the closed right half-plane.  Two built-in
families satisfy this:

* ``triangle(x0)``: f(t) = max(x0 - t, 0), with the classical closed form
  F(z) = (x0 z - 1 + e^{-x0 z}) / z^2.  It is the autocorrelation of the box
  1_[0, x0] and is built as one: ``autocorrelation(s=x0)`` under the
  triangle's name and parameter.

* ``autocorrelation(...)``: f = correlation of a non-negative generator
  g(u) = e^{alpha u} (c0 + c1 cos(beta u)) truncated to [0, s] with itself.
  Then Re F(iy) = |G(iy)|^2 / 2 >= 0 on the imaginary axis, hence on the
  whole closed right half-plane by the minimum principle, so the half-plane
  condition holds by construction.  This family stands in for externally
  defined optimal weights whose formulas are not available here; the
  ``TrialFunction`` constructor doubles as a plug-in point for adding such
  families later without touching the solvers.

Each built-in weight carries a family code ``(x0, folded)``, one of each
conjugate pair of generator-exponent pairs with its coefficient doubled, and
its transform is evaluated by ``_kernels`` from that code alone: real
scalars by ``f_real_scalar`` (through ``TrialFunction.laplace_real``, the
one route of every solver to F at a real point), complex or array arguments
by ``f_array``.
The two agree to 2e-13 relative, not to the bit: Python and NumPy complex
arithmetic differ in the last bits.  The weight f(t) and f(0) read the
same folded pairs, and ``_kernels.E`` serves f(t) here.

A build is plain Python and gives the family code and f(0).
``autocorrelation_code`` checks the parameters and ``autocorrelation`` wraps
its build in a ``TrialFunction``; the family searches ask for their in-box
weights through ``_search_code``, the same build without the checks, and
score the code and f(0) alone.  Builds are memoized process-wide in one
bounded LRU cache (``BUILD_CACHE_SIZE`` entries) that both entries share,
so each distinct weight is built once per process, not once per table row
or cell.  F(0) is not part of a build: the smoothed search and the density
search at b = 0 read it from ``_search_f0``, which forms it on first read
and memoizes it per build key.  A build's pair layout comes from a table by
the generator's term count (``_FOLDS``).  Per distinct exponent
a = g_j + g_k (three for a cosine weight's five folded pairs) a build
forms K = E(s; a) = int_0^s e^{au} du
(``_kernels.exp_quotient``) and the pair term at its coincidence point
z = -g_j, int_0^s u e^{au} du (``_kernels.pair_near``; for real a at most
s K).  A build is refused exactly where K, f(0) or one of those pair terms
is not a finite float, and a code is a tuple of plain Python numbers and
bools that never changes after its build.  NumPy evaluates f(t) on grids,
and the generator's sign when c0 < |c1|.
"""

import cmath
import functools
import inspect
import math
import struct

import numpy as np

from . import _kernels
from .errors import (DomainError, InvalidGeneratorError, InvalidParameterError, nonnegative,
                     positive)

_SMALL_W = _kernels.SMALL_W

#: (k, theta) data pairs of the externally defined cosine-type weights used by
#: the fixed-ratio bounds.  The defining relation theta(k) is not derivable
#: here; the pairs are shipped as data.
K_FAMILY_PAIRS = (
    (2.0, 0.9873),
    (1.5, 1.2729),
    (24480.0 / 14379.0, 1.1580),
)


class TrialFunction:
    """A trial weight with pointwise and Laplace-transform evaluators.

    Instances are immutable after construction, and no state changes after
    it; the evaluators are pure and safe for concurrent use.  ``code`` is
    the family code the kernels in ``_kernels`` consume, a tuple of plain
    numbers; plug-in families may pass ``code=None``, in which case every
    transform goes through ``laplace_fn``.  ``x0`` is the end of the support
    [0, x0) and ``f0`` = f(0), the two numbers of the weight every bound
    reads besides its transform.
    """

    __slots__ = ("family", "params", "x0", "f0", "_eval", "_laplace", "_code")

    def __init__(self, family, params, x0, f0, eval_fn, laplace_fn, code=None):
        positive("support end x0", x0)
        nonnegative("f(0)", f0)
        self.family = family
        self.params = dict(params)
        self.x0 = x0
        self.f0 = f0
        self._eval = eval_fn
        self._laplace = laplace_fn
        self._code = code

    def __call__(self, t):
        """f(t); accepts scalars or arrays, zero for t >= x0 or t < 0."""
        return self._eval(np.asarray(t, dtype=float))

    def laplace(self, z):
        """F(z); accepts real/complex scalars or arrays, entire in z.

        Real scalars (int, float, NumPy floating) of a weight with a code go
        through ``laplace_real``, as a complex.
        """
        if self._code is not None and isinstance(z, (int, float, np.floating)):
            return complex(self.laplace_real(z))
        return self._laplace(z)

    def laplace_real(self, r):
        """F(r) at one real r, as a float.

        A weight with a code takes the scalar kernel ``_kernels.f_real_scalar``,
        which gives +inf past the exp overflow range; a plug-in weight the real
        part of its transform.
        """
        if self._code is None:
            return float(self._laplace(r).real)
        return _kernels.f_real_scalar(self._code, float(r))

    def kernel_code(self):
        return self._code

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"TrialFunction({self.family}, {ps})"


# ---------------------------------------------------------------------------
# triangle family
# ---------------------------------------------------------------------------

def triangle(x0):
    """The triangle weight f(t) = max(x0 - t, 0), the autocorrelation of the box 1_[0, x0]."""
    positive("support end x0", x0)
    x0 = float(x0)
    box = autocorrelation(s=x0)
    return TrialFunction("triangle", {"x0": x0}, box.x0, box.f0, box._eval, box._laplace,
                         code=box.kernel_code())


# ---------------------------------------------------------------------------
# autocorrelation family
# ---------------------------------------------------------------------------

def _t_terms(folded):
    """(c, g_k, g_j + g_k) of each folded pair, real where g_k and g_j + g_k are."""
    out = []
    for c, g_j, g_k, *_ in folded:
        a = g_j + g_k
        if g_k.imag == 0.0 and a.imag == 0.0:
            g_k, a = g_k.real, a.real
        out.append((c, g_k, a))
    return out


def _weight(code, t):
    """f(t) = sum Re c e^{g_k t} E(s - t; g_j + g_k) over the folded pairs of
    the code (s, folded); zero outside [0, s).  Pairs that share g_k share
    its exp, and pairs that share g_j + g_k its E, told apart by type and
    bits (``_kernels.exact_key``): a cosine weight's five pairs take 4 exps
    of g_k t and 4 E's, not 5 and 5, as ``_t_terms`` makes alpha a float in
    one pair and a complex in another."""
    s, folded = code
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    inside = (t >= 0) & (t < s)
    tc = np.where(inside, t, 0.0)
    x = s - tc
    terms = _t_terms(folded)
    # e^0 = 1 and E(x, 0) = x exactly: a pair with g_k = a = 0 takes no exps
    zero = [g_k == 0 and a == 0 for _, g_k, a in terms]
    exps = _kernels.each_once([None if nil else _kernels.exact_key(g_k)
                               for nil, (_, g_k, _) in zip(zero, terms)],
                              lambda i: np.exp(terms[i][1] * tc))
    Es = _kernels.each_once([None if nil else _kernels.exact_key(a)
                             for nil, (_, _, a) in zip(zero, terms)],
                            lambda i: _kernels.E(x, terms[i][2]))
    acc = np.zeros(t.shape)
    for (c, _, _), e, E in zip(terms, exps, Es):
        if e is None:
            acc += c * x
        else:
            acc += (c * e * E).real
    out = np.where(inside, acc, 0.0)
    return float(out[0]) if scalar else out


#: entries of the process-wide cache of family builds (``_search_code``), and
#: of F(0) (``_search_f0``): on the benchmark's smoothed-table rows and T1
#: cells, 1024 serves about as many repeated builds as an unbounded cache
#: (82.5% against 82.9%, 84.8% both)
BUILD_CACHE_SIZE = 1024

#: the cache key: the exact bits of the five float parameters, so alpha = -0.0
#: (whose code holds -0j) and 0.0 are two builds
_KEY = struct.Struct("<5d")


def autocorrelation_code(alpha, c0, c1, beta, s):
    """(family code, f(0)) of ``autocorrelation(alpha, c0, c1, beta, s)``.

    The build ``autocorrelation`` wraps: it checks the parameters (finite int
    or float, s > 0) on every call and hands their floats to
    ``_search_code``, the one cached build.  Raises what ``autocorrelation``
    raises.
    """
    # checked inline, with errors.positive's message for s
    for name, v in (("alpha", alpha), ("c0", c0), ("c1", c1), ("beta", beta)):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise InvalidParameterError(f"autocorrelation parameter {name} must be finite, got {v!r}")
    if not (isinstance(s, (int, float)) and 0 < s < math.inf):
        raise InvalidParameterError(f"generator support s must be finite and > 0, got {s!r}")
    return _search_code(*map(float, (alpha, c0, c1, beta, s)))


def _search_code(alpha, c0, c1, beta, s):
    """(family code, f(0)) of five finite numbers with s > 0, unchecked.

    The family searches ask for their in-box weights here, and
    ``autocorrelation_code`` after its checks.  Builds are memoized
    process-wide in one LRU cache of ``BUILD_CACHE_SIZE`` entries, keyed by
    the bits of the five floats, so every search and caller shares one code
    per distinct weight: the family searches of a table regression ask for
    the same weights row after row (80-88% of their builds repeat one).  A
    build that raises is not cached.  Sharing is sound because a code is an
    immutable tuple of plain numbers.  ``_cached_build`` is the cache and
    ``_build`` the uncached build.
    """
    return _cached_build(_KEY.pack(alpha, c0, c1, beta, s))


def _search_f0(alpha, c0, c1, beta, s):
    """F(0) of ``_search_code``'s build, ``_kernels.f_real_scalar(code,
    0.0)`` to the bit: formed on first read and memoized per build key, in
    an LRU cache of ``BUILD_CACHE_SIZE`` floats (``_cached_f0``).  Only the
    smoothed search and the density search at b = 0 read it."""
    return _cached_f0(_KEY.pack(alpha, c0, c1, beta, s))


@functools.lru_cache(maxsize=BUILD_CACHE_SIZE)
def _cached_build(key):
    return _build(*_KEY.unpack(key))


@functools.lru_cache(maxsize=BUILD_CACHE_SIZE)
def _cached_f0(key):
    return _kernels._f_real_scalar(_cached_build(key)[0], 0.0)


#: the folded pairs of a generator of 1, 2 or 3 terms (alpha; g, conj g;
#: alpha, g, conj g, with g = alpha + i beta).  At real r (or t) the terms of
#: the pairs (j, k) and (conj j, conj k) are conjugates, so one of the two is
#: kept, as (j, k, the factor of c_j c_k: 2 where the two pairs differ, the
#: earlier pair whose exponent g_j + g_k it shares or -1).
#: _kernels._search_pass reads the three-term layout: (a, a), (a, g), (g, a),
#: (g, g), (g, conj g)
_FOLDS = (None,
          ((0, 0, 1.0, -1),),
          ((0, 0, 2.0, -1), (0, 1, 2.0, -1)),
          ((0, 0, 1.0, -1), (0, 1, 2.0, -1), (1, 0, 2.0, 1), (1, 1, 2.0, -1), (1, 2, 2.0, 0)))


def _build(alpha, c0, c1, beta, s):
    """``_search_code`` of five floats, uncached."""
    # the pair (g, g) of g = alpha + i beta has the phase 2 beta s, where
    # cmath.exp raises ValueError once it is not finite
    if c1 != 0.0 and not math.isfinite(2.0 * beta * s):
        raise InvalidParameterError(
            f"the generator's phase 2 beta s overflows for beta={beta}, s={s}")
    # c0 >= |c1| forces g >= 0 outright; otherwise check on a grid
    if c0 < abs(c1):
        # the grid's alpha u, beta u and e^{alpha u} (c0 + c1 cos(beta u)) stay
        # in the float range where the log of the last one's bound,
        # max(alpha s, 0) + log(|c0| + |c1|), is at most 709.78
        top = max(alpha * s, 0.0) + math.log(abs(c0) + abs(c1))
        if not (top <= 709.78 and math.isfinite(alpha * s) and math.isfinite(beta * s)):
            raise InvalidParameterError(
                f"the generator leaves the float range on [0, s] for alpha={alpha}, "
                f"c0={c0}, c1={c1}, beta={beta}, s={s}")
        us = np.linspace(0.0, s, 2001)
        g = np.exp(alpha * us) * (c0 + c1 * np.cos(beta * us))
        if g.min() < -1e-12 * max(1.0, float(np.abs(g).max())):
            raise InvalidGeneratorError(
                f"generator takes negative values on [0, {s}] (min {g.min():.3e})")

    # the generator's terms c e^{g u} with c != 0: alpha alone, or alpha, g
    # and conj g, whose coefficient c1/2 leaves both or neither
    if c1 == 0.0 or beta == 0.0:
        cs, gs = [c0 + (c1 if beta == 0.0 else 0.0)], [complex(alpha)]
    else:
        half = c1 / 2.0
        cs, gs = [c0, half, half], [complex(alpha), complex(alpha, beta), complex(alpha, -beta)]
        if half == 0.0:
            del cs[1:], gs[1:]
    if cs[0] == 0.0:
        del cs[0], gs[0]
    if not cs:
        raise InvalidGeneratorError("generator is identically zero")
    # a pair of exponents with |Im g| s >= SMALL_W never takes ``pair_near``
    # at real r: ``far``
    far = [abs(g_.imag) * s >= _SMALL_W for g_ in gs]
    # a build fails where K, f(0) or a pair term at its coincidence point
    # z = -g_j (for real a at most s K) is not a finite float
    folded, cK = [], []
    try:
        for j, k, factor, same in _FOLDS[len(gs)]:
            g_j, g_k = gs[j], gs[k]
            if same < 0:
                K = _kernels.exp_quotient(g_j + g_k, s)
                if not cmath.isfinite(_kernels.pair_near(K, g_j, g_k, -g_j, s)):
                    raise OverflowError
            else:
                K = folded[same][3]
            c = cs[j] * cs[k] * factor
            folded.append((c, g_j, g_k, K, far[j] and far[k]))
            cK.append(c * K)
        f0 = sum(cK).real
        if not math.isfinite(f0):
            raise OverflowError
    except OverflowError:
        raise InvalidParameterError(
            f"the transform of the generator overflows for alpha={alpha}, s={s}") from None
    return (s, tuple(folded)), f0


def autocorrelation(alpha=0.0, c0=1.0, c1=0.0, beta=0.0, s=1.0):
    """Autocorrelation weight f(t) = int g(u) g(u+t) du of a truncated generator.

    g(u) = e^{alpha u} (c0 + c1 cos(beta u)) on [0, s].  The generator must be
    non-negative there (checked on a grid); f is then supported in [0, s) with
    f(0) = int g^2 and sup f = f(0) by Cauchy-Schwarz.  The transform is a sum
    over exponential components of g,

        F(z) = sum_{j,k} c_j c_k (K_{jk} - E(s; g_k - z)) / (g_j + z),

    with E(s; a) = (e^{as} - 1)/a and K_{jk} = E(s; g_j + g_k) independent of
    z; ``_kernels.pair_near`` covers the removable singularities.  The
    quadrature oracle cross-checks all of it.  Raises InvalidParameterError
    naming alpha and s when f(0), a K_{jk} or a pair term at its coincidence
    point z = -g_j overflows.  The code and f(0) come from
    ``autocorrelation_code``; no F(0) is formed.
    """
    code, f0 = autocorrelation_code(alpha, c0, c1, beta, s)
    params = dict(zip(("alpha", "c0", "c1", "beta", "s"), map(float, (alpha, c0, c1, beta, s))))
    return TrialFunction("autocorrelation", params, code[0], f0, functools.partial(_weight, code),
                         functools.partial(_kernels.f_array, code), code=code)


FAMILY_BUILDERS = {"triangle": triangle, "autocorrelation": autocorrelation}


def build_family(name, **params):
    """Construct a built-in family from CLI-style key-value parameters."""
    try:
        builder = FAMILY_BUILDERS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown family {name!r}; available: {sorted(FAMILY_BUILDERS)}") from None
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise InvalidParameterError(f"family {name!r}: {exc}") from None
    return builder(**params)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def repel_reduce(f, a, b):
    """Upper bound for Re{F(-a+iy) - F(iy) - F(b-a+iy)} uniform in y.

    Equals F(-a) - F(0) when b >= a, else F(-a) - F(b-a); both follow from
    the non-negativity of f and of Re F on the imaginary axis.  inf where
    F(-a) overflows, which still bounds the expression.
    """
    if not (0 <= a < math.inf and 0 <= b < math.inf):   # NaN too
        raise DomainError(f"repel_reduce requires finite a, b >= 0, got a={a}, b={b}")
    F_a = f.laplace_real(-a)
    if F_a == math.inf:   # F decreases, so the other term may be inf too: no inf - inf
        return F_a
    return F_a - f.laplace_real(0.0 if b >= a else b - a)


def half_plane_values(f):
    """(ys, Re F(iy)) on the 2001 points y of [-100, 100] where the
    half-plane condition is checked.

    The grid spacing resolves the transform's oscillation (period bounded
    below by 2 pi / x0) for x0 <= 30; the half-plane condition reduces to the
    boundary by the minimum principle since F decays at infinity.  The grid
    is symmetric to the bit (``ys == -ys[::-1]``): its 1001 points y >= 0
    are ``np.linspace(0, 100, 1001)``, and the rest their negatives.  A
    real weight has Re F(-iy) = Re F(iy), so F is evaluated at y >= 0 alone
    and mirrored; the built-in weights' mirrored values equal a direct
    evaluation at -iy bit for bit, as NumPy's complex exp, subtraction and
    division map conjugates to conjugates, and the stacked pair sum of
    ``_kernels.f_array`` only swaps its addends there.
    """
    y = np.linspace(0.0, 100.0, 1001)
    re = f.laplace(1j * y).real
    return np.concatenate((-y[:0:-1], y)), np.concatenate((re[:0:-1], re))


def condition2_min(f):
    """Minimum of Re F(iy) over ``half_plane_values``' grid."""
    return float(half_plane_values(f)[1].min())
