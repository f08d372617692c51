#!/usr/bin/env python3
"""Layered benchmark of heckezeros: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload smoothed-regress --seed 1 --seconds 14 --trace 0

The seed and ``--seconds`` fix the workload's items (see ``workloads.py``).
``--trace 0`` solves the items once, untraced, times set-up in fresh
interpreters between parts of the pass, and reports the end-to-end metrics.
``--trace 1`` makes an untraced pass, a traced pass and the layer probe, and
reports the per-layer metrics, the four kernel microbenchmarks and the
tracing overhead.

Times are reported in reference seconds.  The speed of a shared virtual
machine changes from one second to the next and drifts by up to 1.6x over
minutes, for all code alike, so after each item the run times a fixed
pure-Python calibration loop for a quarter of the item's time, and scales
the item's time by ``CALIBRATION_REF_S`` over the loop's mean time in the
calibrations around it (at least 0.1 s of them): the time the item would
have taken on a host where the loop takes ``CALIBRATION_REF_S``.  A set-up sample gets the
mean scale of the items that follow it, up to the next sample.
The loop does not touch the library, so a change of the library's speed
shows in full.  The raw seconds and the host speed are printed on the lines
above the result.  ``solve_s`` is the sum of the item times.

Lines above the last one print the environment record and every metric with
its unit.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run is correct when no item
failed, the items meet the harness's pass rule, and the results are
deterministic: earlier runs of the same seed, items and library source in
this checkout (remembered in ``.perfbench_out/digests.json``) gave the same
digest, and in a traced run the untraced and the traced pass agree.
The full record and the traced spans are saved under ``.perfbench_out/``.

The library is imported from ``src/`` of the checkout that holds this file;
without it the run exits with code 2 and prints no result.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "bound_ratio_mean": "ratio",
}

#: set-up samples per run, spread evenly through it so that a slow spell of
#: a shared machine hits few of them
SETUP_SAMPLES = 8
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from heckezeros import dh, oracles, tables, trial_functions, zero_density, zfr
tables.load_all()
f = trial_functions.autocorrelation(alpha=-0.8, c0=1.0, c1=0.9, beta=2.0, s=2.5)
f.laplace(0.3)
f.laplace(np.linspace(-2.0, 2.0, 64))
dh.solve_smoothed("cc-l2-chi2-principal-real", f, 0.2)
dh.solve_poly("cc-lp-nonprincipal", 0.1227, 1.097, 0.7788)
zfr.zfr_solve("order234", 0.9421)
zero_density.n_lambda_bound(zero_density.ZdQuery(trial_functions.triangle(8.0), 0.2))
oracles.quadrature_laplace(f, 0.5 + 2.0j)
"""


#: the calibration loop, and its mean time on the 2-CPU x86-64 virtual
#: machine the benchmark was tuned on (frozen: it only sets the unit)
CALIBRATION_STEPS = 20000
CALIBRATION_REF_S = 1.6e-3
#: calibration time after an item, as a share of the item's time, and the
#: least calibration time an item's host speed is taken from
CALIBRATION_SHARE = 0.25
CALIBRATION_WINDOW_S = 0.1


def calibration_loop():
    s = 0
    for i in range(CALIBRATION_STEPS):
        s += i * i % 7
    return s


def calibrate(seconds):
    """(loops, seconds) of the calibration loop run for about ``seconds``, at
    least twice."""
    loops, t0 = 0, perf_counter()
    while True:
        calibration_loop()
        loops += 1
        elapsed = perf_counter() - t0
        if loops >= 2 and elapsed >= seconds:
            return loops, elapsed


def import_library():
    """Import heckezeros from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "heckezeros" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import heckezeros
    if Path(heckezeros.__file__).resolve().parent != SRC / "heckezeros":
        print(f"perfbench: imported heckezeros from {heckezeros.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return heckezeros


def per_layer_units():
    import spans
    import workloads
    units = {}
    for name in spans.SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.calls_per_item": "1/item",
                      f"{name}.self_s": "s", f"{name}.mean_us": "us"})
    for name in spans.FAIL_FRAC_NAMES:
        units[f"{name}.fail_frac"] = "frac"
    for name in workloads.MICRO_NAMES:
        units[f"micro.{name}.mean_us"] = "us"
    units["trace_overhead_frac"] = "frac"
    return units


def environment(heckezeros):
    import numpy
    return {
        "backend": heckezeros.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def source_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "heckezeros").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def time_setup():
    """Raw seconds of one fresh interpreter's set-up."""
    # a pipe, so that the wait ends when the child closes it: without one,
    # waiting with a timeout polls in steps of up to 50 ms
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                   timeout=120, stdout=subprocess.PIPE)
    return perf_counter() - t0


def solve_all(items):
    """Solve items in order, each followed by a calibration.

    Returns (outcomes, reference seconds per item, raw seconds per item).  An
    item's host speed is taken from the calibrations nearest to it, widened
    symmetrically until they last ``CALIBRATION_WINDOW_S``: the host's speed
    changes from one second to the next, and a short item's own calibration
    is too short to be steady.
    """
    from heckezeros.errors import HeckeZerosError
    import workloads
    outcomes, raw_times = [], []
    calibrations = [calibrate(0.0)]        # [k] ran just before item k
    for item in items:
        t0 = perf_counter()
        try:
            out = item.solve()
        except HeckeZerosError:
            out = workloads.FAILED
        raw = perf_counter() - t0
        calibrations.append(calibrate(CALIBRATION_SHARE * raw))
        raw_times.append(raw)
        outcomes.append(out)
    times = []
    for k, raw in enumerate(raw_times):
        lo, hi = k, k + 2
        while (sum(c[1] for c in calibrations[lo:hi]) < CALIBRATION_WINDOW_S
               and (lo > 0 or hi < len(calibrations))):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(calibrations))
        window = calibrations[lo:hi]
        times.append(raw * CALIBRATION_REF_S * sum(c[0] for c in window)
                     / sum(c[1] for c in window))
    return outcomes, times, raw_times


def inputs_hash(items):
    return hashlib.sha256("\n".join(item.key for item in items).encode()).hexdigest()[:16]


def digest(items, outcomes):
    lines = "\n".join(o.digest_line(item.key) for item, o in zip(items, outcomes))
    return hashlib.sha256(lines.encode()).hexdigest()


def tail(times):
    """(value, percentile) of the highest percentile with >= 10 items beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def check_remembered_digest(key, value):
    """Compare with an earlier run's digest for the same key; remember this one."""
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    previous = known.setdefault(key, value)
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return previous == value


def quality(workload, outcomes):
    attempted = len(outcomes)
    good = [o for o in outcomes if not o.failed]
    ok_frac = sum(o.ok for o in outcomes) / attempted
    # harmonic mean: one much better listed bound cannot hide a worse one
    ratio = len(good) / sum(1.0 / o.ratio for o in good) if good else 0.0
    passed = len(good) == attempted and ok_frac >= workload.min_ok_frac
    return attempted, attempted - len(good), ok_frac, ratio, passed


def run_untraced(workload, items):
    # a set-up sample is scaled by the host speed measured on the items that
    # follow it: a calibration of its own, a quarter of its 0.3 s, spread
    # wider than the raw samples did
    setup, raw_setup, outcomes, times, raw_times = [], [], [], [], []
    n = len(items)
    k = min(SETUP_SAMPLES, n)
    for part in range(k):
        raw_setup.append(time_setup())
        got = solve_all(items[part * n // k:(part + 1) * n // k])
        setup.append(raw_setup[-1] * sum(got[1]) / sum(got[2]))
        outcomes += got[0]
        times += got[1]
        raw_times += got[2]
    attempted, failed, ok_frac, ratio, passed = quality(workload, outcomes)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s": sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok_frac,
        "bound_ratio_mean": ratio,
    }
    notes = [f"item_tail_ms is p{tail_pct:.1f} of {attempted} items",
             f"raw seconds: set-up median {statistics.median(raw_setup):.4f}, "
             f"items {sum(raw_times):.4f}",
             f"host speed (reference s per raw s): {sum(times) / sum(raw_times):.4f}",
             f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} items failed)"]
    return outcomes, metrics, passed, attempted, failed, notes


def run_traced(heckezeros, workload, items, out_path):
    import spans
    import workloads
    micro = workloads.micro_rows()
    untraced, times_untraced, _ = solve_all(items)
    tracer = spans.Tracer(heckezeros)
    with tracer:
        outcomes, times_traced, _ = solve_all(items)
        item_spans = len(tracer)
        workloads.layer_probe()
    tracer.write(out_path)
    metrics = tracer.stats(item_spans, len(items))
    metrics.update({f"micro.{k}.mean_us": v for k, v in micro.items()})
    solve_untraced, solve_traced = sum(times_untraced), sum(times_traced)
    metrics["trace_overhead_frac"] = solve_traced / solve_untraced - 1.0
    attempted, failed, _, _, passed = quality(workload, outcomes)
    transparent = untraced == outcomes
    notes = [f"{len(tracer)} spans saved to {out_path.relative_to(ROOT)}",
             f"untraced {solve_untraced:.4f} s, traced {solve_traced:.4f} s (reference)"]
    if not transparent:
        notes.append("traced and untraced passes returned different results")
    return outcomes, metrics, passed and transparent, attempted, failed, notes


def print_metrics(metrics, units):
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    heckezeros = import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(heckezeros)
    items = workloads.make_items(workload, args.seed, args.seconds)
    tag = f"{workload.name}-seed{args.seed}"

    if args.trace:
        units = per_layer_units()
        outcomes, metrics, passed, attempted, failed, notes = run_traced(
            heckezeros, workload, items, OUT_DIR / f"spans-{tag}.npz")
    else:
        units = END_TO_END
        outcomes, metrics, passed, attempted, failed, notes = run_untraced(workload, items)

    run_digest = digest(items, outcomes)
    remembered = check_remembered_digest(
        f"{workload.name}|{args.seed}|{inputs_hash(items)}|{source_hash()}", run_digest)
    if not remembered:
        notes.append("digest differs from an earlier run of the same seed")
    correct = passed and remembered

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}, seed {args.seed}, {len(items)} items, "
          f"digest {run_digest[:16]}, correct {correct}")
    for note in notes:
        print("  # " + note)
    print_metrics(metrics, units)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "digest": run_digest, "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
