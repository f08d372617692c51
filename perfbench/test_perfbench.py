"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` (one to two minutes).

They run tiny (``--seconds 1``) benchmark runs in subprocesses, as the
benchmark is run for real, plus an in-process traced run for the span checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], out


def record(workload, seed, trace):
    return json.loads((run.OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    text, out = result(bench("--workload", workload, "--seed", "3", "--seconds", "1"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        value = out["metrics"][name]["value"]
        assert value > 0
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in text), name
    assert text[0].startswith("env: ") and json.loads(text[0][5:])["backend"]


def test_traced_runs_repeat_counts_and_digest():
    runs = [result(bench("--workload", "poly-search", "--seed", "5", "--seconds", "1",
                         "--trace", "1"))[1] for _ in range(2)]
    assert all(r["correct"] for r in runs)
    assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == run.per_layer_units()
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith((".calls", ".calls_per_item"))} for r in runs]
    assert counts[0] == counts[1]
    assert 0.5 < counts[0]["optimizer.maximize_bound.calls_per_item"] <= 1.0
    assert counts[0]["kernels.poly_root.calls_per_item"] > 100
    assert counts[0]["trial_functions.autocorrelation.calls_per_item"] == 0.0
    untraced = result(bench("--workload", "poly-search", "--seed", "5", "--seconds", "1"))[1]
    assert untraced["correct"]
    assert record("poly-search", 5, 0)["digest"] == record("poly-search", 5, 1)["digest"]


def test_self_times_never_exceed_the_parent_span():
    heckezeros = run.import_library()
    items = workloads.make_items(workloads.WORKLOADS["poly-search"], 1, 1)[:3]
    items += workloads.make_items(workloads.WORKLOADS["smoothed-regress"], 1, 1)[:1]
    tracer = spans.Tracer(heckezeros)
    with tracer:
        run.solve_all(items)
        workloads.layer_probe()
    assert heckezeros.dh.solve_poly.__module__ == "heckezeros.dh"   # unpatched again
    start, end = np.array(tracer.start), np.array(tracer.end)
    parent = np.array(tracer.parent)
    dur, own = tracer.durations(), tracer.self_times()
    nested = parent >= 0
    assert nested.sum() > 1000
    assert np.all(own >= 0) and np.all(own <= dur)
    assert np.all(own[nested] <= dur[parent[nested]])
    assert np.all(start[nested] >= start[parent[nested]])
    assert np.all(end[nested] <= end[parent[nested]])
    stats = tracer.stats(len(tracer), len(items))
    assert all(stats[f"{name}.calls"] >= 1 for name in spans.SPAN_NAMES)


def test_tail_has_ten_items_beyond_it():
    times = list(range(1, 55))
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == pytest.approx(81.48, abs=0.01)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_seed_fixes_the_inputs():
    w = workloads.WORKLOADS["oracle-check"]
    keys = lambda seed: [i.key for i in workloads.make_items(w, seed, 3)]
    assert keys(4) == keys(4) and keys(4) != keys(6)
    assert len(keys(4)) == len(keys(6)) >= 3 * w.items_per_second
    grid = workloads.WORKLOADS["density-grid"]
    cells = lambda seed: [i.key for i in workloads.make_items(grid, seed, 3)]
    assert sorted(cells(4)) == sorted(cells(6)) and cells(4) != cells(6)
    assert len(set(cells(4))) == len(cells(4)) == round(3 * grid.items_per_second)
    whole = [i.key for i in workloads.make_items(grid, 4, 60)]
    assert len(set(whole)) == len(whole) == 113


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "poly-search", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
