"""One verdict per bound: every root-solved bound reports a failed solve
through ``errors.no_bound``, with one message form and one sign rule."""

import math

import numpy as np
import pytest

from heckezeros import _kernels, dh, zfr
from heckezeros import trial_functions as tf
from heckezeros.errors import NoBoundError, no_bound

FLAGGED = " (degenerate / unbounded, flagged for review)"

#: kind -> (sign, the words before the bracket, the tail after the inputs)
KINDS = {
    "nan": (None, "h is NaN at an end of", ""),
    "zero": (None, "h is 0 at both ends of", FLAGGED),
    "positive": ("positive", "h stays positive on", " (no {} provable)"),
    "negative": ("negative", "h stays negative on", FLAGGED),
}


def _nan_weight(x0):
    f = tf.triangle(x0)
    return tf.TrialFunction("plugin", {}, f.x0, f.f0, f,
                            lambda z: np.full(np.shape(z), np.nan) + 0j)


NAN_WEIGHT = _nan_weight(1.5)
NARROW = tf.triangle(0.05)

#: (id, call, subject, hi, inputs, kind, what a positive h leaves unprovable):
#: every failure of the four root-solved bounds that valid inputs reach
PATHS = [
    ("smoothed-nan", lambda: dh.solve_smoothed("sz-lp-principal", NAN_WEIGHT, 0.05),
     "sz-lp-principal", 60.0, repr(NAN_WEIGHT), "nan", "repulsion"),
    ("smoothed-zero", lambda: dh.solve_smoothed("sz-lp-quadratic", tf.triangle(2.0), 0.0),
     "sz-lp-quadratic", 60.0, repr(tf.triangle(2.0)), "zero", "repulsion"),
    ("smoothed-positive", lambda: dh.solve_smoothed("sz-lp-principal", tf.triangle(0.9), 0.05),
     "sz-lp-principal", 60.0, repr(tf.triangle(0.9)), "positive", "repulsion"),
    ("smoothed-negative",
     lambda: dh.solve_smoothed("cc-l2-nonprincipal", tf.triangle(4.0), 0.0, phi=0.0),
     "cc-l2-nonprincipal", 60.0, repr(tf.triangle(4.0)), "negative", "repulsion"),
    ("poly-positive", lambda: dh.solve_poly("sz-lp-quadratic-medium", 0.0, 4.0, 4.9),
     "sz-lp-quadratic-medium", 1000.0, "b=0.0, lambda=4.0, J=4.9", "positive", "repulsion"),
    # phi = 0 and b = 0 leave h = -2J P(u) < 0 on the whole bracket
    ("poly-negative", lambda: dh.solve_poly("sz-lp-quadratic-medium", 0.0, 1.0, 1.0, phi=0.0),
     "sz-lp-quadratic-medium", 1000.0, "b=0.0, lambda=1.0, J=1.0", "negative", "repulsion"),
    ("zfr-positive", lambda: zfr.zfr_solve("principal", 40.0),
     "zfr principal", 10.0, "lambda=40.0", "positive", "region"),
    ("zfr-negative", lambda: zfr.zfr_solve("order234", 50.0, phi=0.0),
     "zfr order234", 10.0, "lambda=50.0", "negative", "region"),
    ("ge6-positive", lambda: zfr.zfr_order_ge6(NARROW),
     "order>=6", 0.3916, repr(NARROW), "positive", "region"),
    ("ge6-nan", lambda: zfr.zfr_order_ge6(_nan_weight(4.0)),
     "order>=6", 0.3916, repr(_nan_weight(4.0)), "nan", "region"),
]


@pytest.mark.parametrize("call, subject, hi, inputs, kind, proves",
                         [p[1:] for p in PATHS], ids=[p[0] for p in PATHS])
def test_every_failed_solve_is_reported_alike(call, subject, hi, inputs, kind, proves):
    sign, words, tail = KINDS[kind]
    with pytest.raises(NoBoundError) as err:
        call()
    assert err.value.sign == sign
    assert str(err.value) == f"{subject}: {words} [0, {hi}] for {inputs}{tail.format(proves)}"


@pytest.mark.parametrize("hlo, hhi, sign", [
    (math.nan, 1.0, None), (1.0, math.nan, None), (-1.0, math.nan, None),
    (math.nan, math.nan, None), (0.0, 0.0, None), (1.0, 2.0, "positive"),
    (1.0, 0.0, "positive"), (math.inf, math.inf, "positive"), (-2.0, -1.0, "negative"),
    (0.0, -1.0, "negative"), (-math.inf, -1.0, "negative")])
def test_sign_is_the_one_h_keeps(hlo, hhi, sign):
    # a NaN end says nothing about the sign, even next to a signed one
    assert no_bound("s", 1.0, "x", hlo, hhi).sign == sign


@pytest.mark.parametrize("lam_star, floor", [(zfr.ORDER_GE6_LAMBDA_STAR, False), (0.1, True)])
def test_order_ge6_solves_by_the_smoothed_root_kernel(monkeypatch, lam_star, floor):
    # at lam_star = 0.1 h is still negative at the top: the full floor, no report
    kernel, calls = _kernels.smoothed_root, []
    monkeypatch.setattr(_kernels, "smoothed_root",
                        lambda *args: calls.append(args[1:]) or kernel(*args))
    res = zfr.zfr_order_ge6(tf.triangle(4.0), lam_star=lam_star)
    assert calls == [(0.0, lam_star)]
    assert (res.lambda1 == res.root == lam_star) == floor and 0.0 < res.root <= lam_star
