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
scalars by ``f_real_scalar``, complex or array arguments by ``f_array``.
The two agree to 2e-13 relative, not to the bit: Python and NumPy complex
arithmetic differ in the last bits.  The weight f(t), f(0) and sup |f''|
read the same folded pairs, and ``_kernels.E`` serves f(t) and its second
derivative here.
"""

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, InvalidGeneratorError, InvalidParameterError

_SMALL_W = _kernels.SMALL_W

#: (k, theta) data pairs of the externally defined cosine-type weights used by
#: the fixed-ratio bounds.  The defining relation theta(k) is not derivable
#: here; the pairs are shipped as data.
K_FAMILY_PAIRS = (
    (2.0, 0.9873),
    (1.5, 1.2729),
    (24480.0 / 14379.0, 1.1580),
)


class _OnFirstAccess:
    """``Content.B``: a zero-argument callable given for it runs on first access."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("B")       # so the dataclass field has no default
        if callable(obj.__dict__["_B"]):
            obj.__dict__["_B"] = obj.__dict__["_B"]()
        return obj.__dict__["_B"]

    def __set__(self, obj, value):
        obj.__dict__["_B"] = value


@dataclass(frozen=True)
class Content:
    """Summary data (x0, M, B, f0) of a trial weight.

    x0 bounds the support, M = sup |f|, B = sup |f''| on (0, x0), f0 = f(0).
    ``remainder_constant`` is the constant A = 3 B x0 + 2 f0 / x0 controlling
    the |F(z) - f(0)/z| <= A/|z|^2 remainder bound on Re z > 0.  B may be given
    as a zero-argument callable, which runs on first access; its value is kept.
    """

    x0: float
    M: float
    B: float = _OnFirstAccess()
    f0: float

    def __post_init__(self):
        if not (self.x0 > 0):
            raise InvalidParameterError(f"support endpoint must be positive, got {self.x0}")
        if not (self.M >= self.f0 >= 0):
            raise InvalidParameterError(f"need M >= f0 >= 0, got M={self.M}, f0={self.f0}")
        if not callable(self.__dict__["_B"]) and self.B < 0:
            raise InvalidParameterError(f"second-derivative bound must be >= 0, got {self.B}")

    @property
    def remainder_constant(self):
        return 3.0 * self.B * self.x0 + 2.0 * self.f0 / self.x0


class TrialFunction:
    """A trial weight with pointwise and Laplace-transform evaluators.

    Instances are immutable after construction; the evaluators are pure and
    safe for concurrent use.  ``code`` is the flattened family code the
    kernels in ``_kernels`` consume; plug-in families may pass
    ``code=None``, in which case every transform goes through ``laplace_fn``.
    """

    __slots__ = ("family", "params", "content", "_eval", "_laplace", "_code")

    def __init__(self, family, params, content, eval_fn, laplace_fn, code=None):
        self.family = family
        self.params = dict(params)
        self.content = content
        self._eval = eval_fn
        self._laplace = laplace_fn
        self._code = code

    def __call__(self, t):
        """f(t); accepts scalars or arrays, zero for t >= x0 or t < 0."""
        return self._eval(np.asarray(t, dtype=float))

    def laplace(self, z):
        """F(z); accepts real/complex scalars or arrays, entire in z.

        Real scalars (int, float, NumPy floating) of a weight with a code go
        through the scalar kernel, which gives +inf past the exp overflow range.
        """
        if self._code is not None and isinstance(z, (int, float, np.floating)):
            return complex(_kernels.f_real_scalar(self._code, float(z)))
        return self._laplace(z)

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
    if not (isinstance(x0, (int, float)) and math.isfinite(x0) and x0 > 0):
        raise InvalidParameterError(f"triangle support endpoint must be positive, got {x0!r}")
    x0 = float(x0)
    box = autocorrelation(s=x0)
    return TrialFunction("triangle", {"x0": x0}, box.content, box._eval, box._laplace,
                         code=box.kernel_code())


# ---------------------------------------------------------------------------
# autocorrelation family
# ---------------------------------------------------------------------------

def _exp_moments_vec(a, s, nmax):
    """All moments M_n = int_0^s u^n e^{au} du, n = 0..nmax, at once for a
    complex array of exponents.  Raises OverflowError when a power s^j
    overflows."""
    a = np.asarray(a, dtype=complex)
    w = a * s
    small = np.abs(w) < _SMALL_W
    out = np.empty((nmax + 1, a.size), dtype=complex)
    if not small.all():
        a_safe = np.where(small, 1.0, a)
        with np.errstate(over="ignore", invalid="ignore"):
            ew = np.exp(w)
            out[0] = (ew - 1.0) / a_safe
            for n in range(1, nmax + 1):
                out[n] = (s ** n * ew - n * out[n - 1]) / a_safe
    zero = a == 0
    if zero.any():
        # at a = 0 only the series' first term is nonzero, M_n = s^(n+1)/(n+1);
        # it is formed in the same complex arithmetic, so bit for bit
        k = np.arange(1, nmax + 2, dtype=float)[:, None]
        s_pow = np.array([s ** j for j in range(1, nmax + 2)])[:, None]
        out[:, zero] = np.ones(1, dtype=complex) * s_pow / k
        small &= ~zero
    if small.any():
        # M_n = sum_m a^m/m! s^(n+m+1)/(n+m+1), every n at once, bit for bit
        k = np.arange(1, nmax + 31, dtype=float)[:, None]
        s_pow = np.array([s ** j for j in range(1, nmax + 31)])[:, None]
        a_s = a[small]
        series = np.zeros((nmax + 1, a_s.size), dtype=complex)
        term = np.ones(a_s.size, dtype=complex)
        for m in range(30):
            series += term * s_pow[m:m + nmax + 1] / k[m:m + nmax + 1]
            term *= a_s / (m + 1)
        out[:, small] = series
    return out


def autocorrelation(alpha=0.0, c0=1.0, c1=0.0, beta=0.0, s=1.0):
    """Autocorrelation weight f(t) = int g(u) g(u+t) du of a truncated generator.

    g(u) = e^{alpha u} (c0 + c1 cos(beta u)) on [0, s].  The generator must be
    non-negative there (checked on a grid); f is then supported in [0, s) with
    f(0) = int g^2 and sup f = f(0) by Cauchy-Schwarz.  The transform is a sum
    over exponential components of g,

        F(z) = sum_{j,k} c_j c_k (K_{jk} - E(s; g_k - z)) / (g_j + z),

    with E(s; a) = (e^{as} - 1)/a and K_{jk} = E(s; g_j + g_k) independent of
    z; Taylor fallbacks cover the removable singularities.  The quadrature
    oracle cross-checks all of it.
    """
    for name, v in (("alpha", alpha), ("c0", c0), ("c1", c1), ("beta", beta), ("s", s)):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise InvalidParameterError(f"autocorrelation parameter {name} must be finite, got {v!r}")
    if s <= 0:
        raise InvalidParameterError(f"generator support s must be positive, got {s}")
    alpha, c0, c1, beta, s = map(float, (alpha, c0, c1, beta, s))

    # c0 >= |c1| forces g >= 0 outright; otherwise check on a grid
    if c0 < abs(c1):
        us = np.linspace(0.0, s, 2001)
        g = np.exp(alpha * us) * (c0 + c1 * np.cos(beta * us))
        if g.min() < -1e-12 * max(1.0, float(np.abs(g).max())):
            raise InvalidGeneratorError(
                f"generator takes negative values on [0, {s}] (min {g.min():.3e})")

    if c1 == 0.0 or beta == 0.0:
        terms = [(c0 + (c1 if beta == 0.0 else 0.0), complex(alpha))]
    else:
        terms = [(c0, complex(alpha)),
                 (c1 / 2.0, complex(alpha, beta)),
                 (c1 / 2.0, complex(alpha, -beta))]
    terms = [(c, g_) for c, g_ in terms if c != 0.0]
    if not terms:
        raise InvalidGeneratorError("generator is identically zero")

    # at real r (or t) the terms of pair (j, k) and of its conjugate pair are
    # conjugates: keep the first, c_j c_k doubled when they differ, with its
    # g_j, g_k, K_{jk} and M_1 .. M_7 at a = g_j + g_k.  A pair of exponents
    # with |Im g| s >= SMALL_W never takes a series branch at real r: ``far``
    gs = [g_ for _, g_ in terms]
    conj = [gs.index(g_.conjugate()) for g_ in gs]
    keep = [(j, k) for j in range(len(gs)) for k in range(len(gs))
            if (conj[j], conj[k]) >= (j, k)]
    try:
        moments = _exp_moments_vec([gs[j] + gs[k] for j, k in keep], s, _kernels.N_MOMENTS)
    except OverflowError:
        raise InvalidParameterError(
            f"the moments of the generator overflow: s^n is out of range for s={s}") from None
    folded = tuple(
        (terms[j][0] * terms[k][0] * (1.0 if (conj[j], conj[k]) == (j, k) else 2.0),
         gs[j], gs[k], K, tuple(M), min(abs(gs[j].imag), abs(gs[k].imag)) * s >= _SMALL_W)
        for (j, k), K, M in zip(keep, moments[0].tolist(), moments[1:].T.tolist()))

    f0 = float(sum(c * K for c, _, _, K, *_ in folded).real)
    if not math.isfinite(f0):
        raise InvalidParameterError(
            f"f(0) = int g^2 overflows for the generator alpha={alpha}, s={s}"
            f" (got {f0})")

    # f(t) = sum Re c e^{g_k t} E(s - t; g_j + g_k) over the folded pairs, in
    # real arithmetic for a pair whose g_k and g_j + g_k are real
    t_terms = []
    for c, g_j, g_k, *_ in folded:
        a = g_j + g_k
        if g_k.imag == 0.0 and a.imag == 0.0:
            g_k, a = g_k.real, a.real
        t_terms.append((c, g_k, a))

    def _eval(t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        inside = (t >= 0) & (t < s)
        tc = np.where(inside, t, 0.0)
        acc = np.zeros(t.shape)
        for c, g_k, a in t_terms:
            if g_k == 0 and a == 0:
                # e^0 = 1 and E(x, 0) = x exactly: no exps
                acc += c * (s - tc)
            else:
                acc += (c * np.exp(g_k * tc) * _kernels.E(s - tc, a)).real
        out = np.where(inside, acc, 0.0)
        return float(out[0]) if scalar else out

    def sup_f2():
        # sup |f''| from the exact second derivative on a grid, summed over
        # the folded pairs; 5% headroom keeps the remainder constant an
        # upper bound despite gridding
        ts = np.linspace(0.0, s, 2001, endpoint=False)
        f2 = 0.0
        for c, g_k, a in t_terms:
            with np.errstate(over="ignore", invalid="ignore"):
                egk = np.exp(g_k * ts)
                f2 += (c * (g_k ** 2 * egk * _kernels.E(s - ts, a)
                            + (a - 2.0 * g_k) * egk * np.exp(a * (s - ts)))).real
        return 1.05 * float(np.abs(f2).max())

    content = Content(x0=s, M=f0, B=sup_f2, f0=f0)
    params = {"alpha": alpha, "c0": c0, "c1": c1, "beta": beta, "s": s}

    code = (s, folded)
    return TrialFunction("autocorrelation", params, content, _eval,
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

def f0_remainder_bound(f, z):
    """Split F(z) = f(0)/z + F_0(z) and check |F_0| <= A/|z|^2 on Re z > 0.

    Returns (F_0(z), bound_ok).  A is the content's remainder constant.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError(f"remainder split requires Re z > 0, got {z}")
    F0 = f.laplace(z) - f.content.f0 / z
    ok = abs(F0) <= f.content.remainder_constant / abs(z) ** 2 + 1e-12
    return F0, bool(ok)


def repel_reduce(f, a, b):
    """Upper bound for Re{F(-a+iy) - F(iy) - F(b-a+iy)} uniform in y.

    Equals F(-a) - F(0) when b >= a, else F(-a) - F(b-a); both follow from
    the non-negativity of f and of Re F on the imaginary axis.
    """
    if a < 0 or b < 0:
        raise DomainError(f"repel_reduce requires a, b >= 0, got a={a}, b={b}")
    if b >= a:
        return float((f.laplace(-a) - f.laplace(0.0)).real)
    return float((f.laplace(-a) - f.laplace(b - a)).real)


def condition2_min(f):
    """Minimum of Re F(iy) over 2001 points y in [-100, 100].

    The grid spacing resolves the transform's oscillation (period bounded
    below by 2 pi / x0) for x0 <= 30; the half-plane condition reduces to the
    boundary by the minimum principle since F decays at infinity.
    """
    ys = np.linspace(-100.0, 100.0, 2001)
    vals = f.laplace(1j * ys).real
    return float(vals.min())
