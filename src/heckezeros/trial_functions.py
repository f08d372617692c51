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
conjugate pair of generator-exponent pairs with its coefficient doubled.
Its format is ``_kernels``' alone, which folds it (``_kernels.fold``) and
reads it: real scalars by ``f_real_scalar`` (through
``TrialFunction.laplace_real``, the one route of every solver to F at a real
point), complex or array arguments by ``f_array``, and f(t) by
``_kernels.weight``.  The two transforms agree to 2e-13 relative, not to the
bit: Python and NumPy complex arithmetic differ in the last bits.  This
module writes the generator's own rules (its phase, its sign in closed form
and its terms c e^{g u}), the parameter checks, the build memo and
``TrialFunction``, and holds a code only to hand it on.

A build is plain Python and gives the family code and f(0).
``autocorrelation_code`` checks the parameters and ``autocorrelation`` wraps
its build in a ``TrialFunction``; the family searches ask for their in-box
weights through ``_search_code``, the same build without the checks, and
score the code and f(0) alone.  Builds are memoized process-wide in one
bounded LRU cache (``BUILD_CACHE_SIZE`` entries) that both entries share,
so each distinct weight is built once per process, not once per table row
or cell.  F(0) is not part of a build: the smoothed search and the density
search at b = 0 read it from ``_search_f0``, which forms it on first read
and memoizes it per build key.  ``_kernels.fold`` takes the pair layout
from a table by the generator's term count (``_kernels._FOLDS``) and forms
K = E(s; a) = int_0^s e^{au} du per distinct exponent a = g_j + g_k
(three for a cosine weight's five folded pairs).  A build is refused
exactly where K, f(0), a pair term at its coincidence point z = -g_j,
M1 = int_0^s u e^{au} du, or 2 alpha is not a finite float (a 2 alpha of
-inf would round K to 0 and f(0) with it).  Each a has real part 2 alpha,
so |M1| <= s E(s; 2 alpha), a K the build holds; where that bound lies far
inside the float range (``_kernels._pair_terms_finite``, true of every
weight in the search boxes) no pair term is formed, and elsewhere each is
formed by ``_kernels.pair_near`` and checked.  So a search weight's build
takes three ``exp_quotient`` calls and no ``pair_near``, about half the
time of forming the pair terms too.  A code is a tuple of plain Python
numbers that never changes after its build.  A build reads no NumPy: the
generator's sign is decided in closed form.  NumPy evaluates f(t) on grids.
"""

import functools
import inspect
import math
import numbers
import struct

import numpy as np

from . import _kernels
from .errors import (DomainError, InvalidGeneratorError, InvalidParameterError, _shown,
                     finite, lookup, nonnegative, number, positive, real)

#: (k, theta) data pairs of the externally defined cosine-type weights used by
#: the fixed-ratio bounds.  The defining relation theta(k) is not derivable
#: here; the pairs are shipped as data.  The third k is c1/c0 of the zero-free
#: region case 'order234' (``zfr``, which imports this module).
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
        """f(t); accepts real scalars or arrays, zero for t >= x0 or t < 0.
        Anything else (a str, bytes, None, a bool or a complex) or a NaN
        raises DomainError."""
        t = np.asarray(_numbers("f(t)", t, real), dtype=float)
        if np.isnan(t).any():
            raise DomainError("f(t) requires t that is not NaN")
        return self._eval(t)

    def laplace(self, z):
        """F(z); accepts real/complex scalars or arrays, entire in z.

        Real scalars (int, float, NumPy floating) of a weight with a code go
        through ``laplace_real``, as a complex, which refuses a NaN.  Anything
        but numbers (a str, bytes, None or a bool) raises DomainError.
        """
        if self._code is not None and isinstance(z, (int, float, np.floating)):
            return complex(self.laplace_real(z))
        return self._laplace(_numbers("laplace", z, number))

    def laplace_real(self, r):
        """F(r) at one real r, as a float.

        A weight with a code takes the scalar kernel ``_kernels.f_real_scalar``,
        which gives +inf past the exp overflow range (at r = -inf too, and 0.0
        at r = +inf); a plug-in weight the real part of its transform.  An r
        that is not a real number a float holds (a str, bytes, None, a bool,
        a complex or the int 10**400) or is NaN raises DomainError; a float
        is told at once.
        """
        if type(r) is not float:
            # a float subclass (np.float64) is told at once too
            if not (isinstance(r, float) or real(r)):
                raise DomainError(f"laplace_real requires a real number r, got r={_shown(r)}")
            r = float(r)
        if r != r:
            raise DomainError(f"laplace_real requires r that is not NaN, got r={r}")
        if self._code is None:
            return float(self._laplace(r).real)
        return _kernels.f_real_scalar(self._code, r)

    def kernel_code(self):
        return self._code

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"TrialFunction({self.family}, {ps})"


def _numbers(what, x, test):
    """``x``, or DomainError naming ``what`` unless ``x`` is numbers alone:
    a real (``test`` = ``errors.real``) or a complex (``errors.number``)
    scalar, or an array of them, whose dtype is NumPy's integer, float or
    (for ``number``) complex, or is object with every element passing
    ``test`` (an int past int64 that a float holds, a Fraction).  Such an
    object array comes back as floats, or as complexes if one is complex."""
    a = np.asarray(x)
    if a.dtype.kind in _KINDS[test]:
        return x
    if a.dtype.kind == "O" and all(map(test, a.flat)):
        return a.astype(float if all(isinstance(v, numbers.Real) for v in a.flat) else complex)
    shown = _shown(x) if a.ndim == 0 else f"an array of {a.dtype}"
    raise DomainError(f"{what} requires numbers, got {shown}")


#: the NumPy dtype kinds each test of a number takes
_KINDS = {real: "iuf", number: "iufc"}


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

    The build ``autocorrelation`` wraps: it checks the parameters (finite
    reals, ``errors.finite``, so not bools; s > 0, ``errors.positive``) on
    every call and hands their floats to ``_search_code``, the one cached
    build.  Raises what ``autocorrelation`` raises.
    """
    for name, v in (("alpha", alpha), ("c0", c0), ("c1", c1), ("beta", beta)):
        finite(f"autocorrelation parameter {name}", v)
    positive("generator support s", s)
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


def _build(alpha, c0, c1, beta, s):
    """``_search_code`` of five floats, uncached: the generator's rules and
    terms here, their fold by ``_kernels.fold``."""
    # the pair (g, g) of g = alpha + i beta has the phase 2 beta s, where
    # cmath.exp raises ValueError once it is not finite
    if c1 != 0.0 and not math.isfinite(2.0 * beta * s):
        raise InvalidParameterError(
            f"the generator's phase 2 beta s overflows for beta={beta}, s={s}")
    # g has the sign of c0 + c1 cos(beta u), as e^{alpha u} > 0: c0 >= |c1|
    # forces g >= 0 outright; otherwise the least value on [0, s] is c0 + c1
    # at u = 0 where c1 < 0, else at beta u = min(|beta| s, pi)
    if c0 < abs(c1):
        least = c0 + c1 * (math.cos(min(abs(beta) * s, math.pi)) if c1 > 0.0 else 1.0)
        if least < -1e-12 * (abs(c0) + abs(c1)):
            raise InvalidGeneratorError(f"generator takes negative values on [0, {s}]: "
                                        f"c0 + c1 cos(beta u) reaches {least:.3e}")

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
    try:
        return _kernels.fold(cs, gs, s)
    except OverflowError:
        raise InvalidParameterError(
            f"the transform of the generator overflows for alpha={alpha}, s={s}") from None


def autocorrelation(alpha=0.0, c0=1.0, c1=0.0, beta=0.0, s=1.0):
    """Autocorrelation weight f(t) = int g(u) g(u+t) du of a truncated generator.

    g(u) = e^{alpha u} (c0 + c1 cos(beta u)) on [0, s].  The generator must be
    non-negative there: InvalidGeneratorError where the least value of
    c0 + c1 cos(beta u) on [0, s], in closed form, lies below
    -1e-12 (|c0| + |c1|).  f is then supported in [0, s) with
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
    return TrialFunction("autocorrelation", params, code[0], f0, functools.partial(_kernels.weight, code),
                         functools.partial(_kernels.f_array, code), code=code)


FAMILY_BUILDERS = {"triangle": triangle, "autocorrelation": autocorrelation}


def build_family(name, **params):
    """Construct a built-in family from CLI-style key-value parameters."""
    builder = lookup("family", name, FAMILY_BUILDERS)
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
    F(-a) overflows, which still bounds the expression.  a and b must be
    finite reals >= 0 (``DomainError``).
    """
    if not all(real(v) and 0 <= v < math.inf for v in (a, b)):   # NaN too
        raise DomainError(f"repel_reduce requires finite a, b >= 0, got a={a}, b={b}")
    F_a = f.laplace_real(-a)
    if F_a == math.inf:   # F decreases, so the other term may be inf too: no inf - inf
        return F_a
    return F_a - f.laplace_real(0.0 if b >= a else b - a)


@functools.cache
def _half_plane_iy():
    """The half-plane grid's points iy, y >= 0 (``np.linspace(0, 100,
    1001)``), read-only, formed on first use."""
    iy = 1j * np.linspace(0.0, 100.0, 1001)
    iy.flags.writeable = False
    return iy


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
    division map conjugates to conjugates, and ``_kernels.f_array`` sums
    the two terms of each conjugate pair, whose addends only swap there.
    """
    iy = _half_plane_iy()
    y, re = iy.imag, f.laplace(iy).real
    return np.concatenate((-y[:0:-1], y)), np.concatenate((re[:0:-1], re))


def condition2_min(f):
    """Minimum of Re F(iy) over ``half_plane_values``' grid, taken over its
    points y >= 0, whose values the mirrored half repeats."""
    return float(f.laplace(_half_plane_iy()).real.min())
