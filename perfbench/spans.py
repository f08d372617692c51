"""In-memory span tracer for the library's public functions, applied from outside.

The tracer wraps module attributes (and two ``TrialFunction`` methods) for the
duration of a ``with`` block.  The library calls its own layers through those
attributes (``dh`` calls ``_kernels.smoothed_root``, ``optimizer`` calls
``dh.solve_smoothed``, ``zfr.zfr_optimize`` calls ``zfr_solve`` by global
name), so nested calls are seen too.  Calls a kernel makes to its private
helpers are not: the ``F`` evaluations inside ``_kernels.smoothed_root`` go
through ``_kernels._f_real_scalar`` and stay invisible here; counting them
needs counters inside the library.

Each span records its name, start, end, the span that was open when it began
(its parent) and whether it failed: the call raised, or a root kernel
returned NaN for "no sign change".  Spans live in flat arrays until the run
ends; ``write`` saves them.
"""

import math
import os
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute) of every wrapped function; the span and metric name is
#: ``<layer>.<fn>`` with ``_kernels`` shortened to ``kernels`` (metric names
#: may not start with an underscore)
WRAPPED = (
    ("trial_functions", "autocorrelation"),
    ("_kernels", "f_real_scalar"),
    ("_kernels", "smoothed_root"),
    ("_kernels", "poly_root"),
    ("_kernels", "zfr_root"),
    ("dh", "solve_smoothed"),
    ("dh", "solve_poly"),
    ("zfr", "zfr_solve"),
    ("zero_density", "n_lambda_bound"),
    ("optimizer", "optimize_family_smoothed"),
    ("optimizer", "optimize_zd"),
    ("optimizer", "maximize_bound"),
    ("tables", "regress"),
    ("tables", "regress_zero_density"),
    ("oracles", "quadrature_laplace"),
    ("oracles", "scan_root"),
)

#: ``TrialFunction.laplace`` is split by the rank of its argument
METHOD_SPANS = ("trial_functions.laplace_scalar", "trial_functions.laplace_array",
                "trial_functions.eval")

_ROOT_KERNELS = {"kernels.smoothed_root", "kernels.poly_root", "kernels.zfr_root"}


def layer_name(module, attr):
    return f"{module.lstrip('_')}.{attr}"


SPAN_NAMES = tuple(sorted([layer_name(m, a) for m, a in WRAPPED] + list(METHOD_SPANS)))

#: search -> the objective evaluation whose failures it wastes; ``zfr.zfr_solve``
#: stands for ``zfr.zfr_optimize``'s scan, which is not itself wrapped
SEARCH_OBJECTIVES = {
    "optimizer.optimize_family_smoothed": "dh.solve_smoothed",
    "optimizer.optimize_zd": "zero_density.n_lambda_bound",
    "optimizer.maximize_bound": "dh.solve_poly",
}
FAIL_FRAC_NAMES = tuple(SEARCH_OBJECTIVES) + ("zfr.zfr_solve",)


class Tracer:
    """Records a span per wrapped call while installed (``with tracer:``)."""

    def __init__(self, heckezeros):
        self._pkg = heckezeros
        self._index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack = []
        self._saved = []

    def __len__(self):
        return len(self.name)

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.name)
        self.name.append(self._index[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.failed[idx] = 1
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        if name in _ROOT_KERNELS and math.isnan(out[0]):
            self.failed[idx] = 1
        return out

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        for module, attr in WRAPPED:
            mod = getattr(self._pkg, module)
            fn = getattr(mod, attr)
            name = layer_name(module, attr)

            def traced(*args, _fn=fn, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            self._patch(mod, attr, traced)
        cls = self._pkg.trial_functions.TrialFunction
        laplace, evaluate = cls.laplace, cls.__call__

        def traced_laplace(f, z):
            name = METHOD_SPANS[0] if np.ndim(z) == 0 else METHOD_SPANS[1]
            return self.call(name, laplace, f, z)

        def traced_eval(f, t):
            return self.call(METHOD_SPANS[2], evaluate, f, t)

        self._patch(cls, "laplace", traced_laplace)
        self._patch(cls, "__call__", traced_eval)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis ------------------------------------------------------------

    def durations(self):
        return np.array(self.end, dtype=float) - np.array(self.start, dtype=float)

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        dur = self.durations()
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def stats(self, item_spans, items):
        """Per-layer metric values.

        ``calls``, ``self_s`` and ``mean_us`` (mean inclusive duration) cover
        every span; ``calls_per_item`` counts only the first ``item_spans``
        spans, which the caller recorded while solving ``items`` items.
        """
        names = np.array(self.name, dtype=np.int8)
        failed = np.array(self.failed, dtype=bool)
        dur = self.durations()
        own = self.self_times()
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            mask = names == i
            calls = int(mask.sum())
            out[f"{name}.calls"] = calls
            out[f"{name}.calls_per_item"] = int((names[:item_spans] == i).sum()) / max(items, 1)
            out[f"{name}.self_s"] = float(own[mask].sum())
            out[f"{name}.mean_us"] = float(dur[mask].mean() * 1e6) if calls else 0.0
        search_of = self._nearest_search()
        for search, objective in SEARCH_OBJECTIVES.items():
            evals = (names == self._index[objective]) & (search_of == self._index[search])
            out[f"{search}.fail_frac"] = _share(failed[evals])
        out["zfr.zfr_solve.fail_frac"] = _share(failed[names == self._index["zfr.zfr_solve"]])
        return out

    def _nearest_search(self):
        """Name index of each span's nearest enclosing search span, or -1."""
        searches = {self._index[s] for s in SEARCH_OBJECTIVES}
        names = self.name
        out = [-1] * len(names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[i] = names[p] if names[p] in searches else out[p]
        return np.array(out, dtype=np.int64)

    def write(self, path):
        """Save every span (name, parent, start, end, failed) as a NumPy archive."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(SPAN_NAMES),
                            name=np.array(self.name, dtype=np.int8),
                            parent=np.array(self.parent, dtype=np.int64),
                            start=np.array(self.start, dtype=float),
                            end=np.array(self.end, dtype=float),
                            failed=np.array(self.failed, dtype=bool))


def _share(flags):
    return float(flags.mean()) if flags.size else 0.0
