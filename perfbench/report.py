#!/usr/bin/env python3
"""Summaries and comparisons of saved benchmark records.

    python3 perfbench/report.py baseline OUT.json   # summarize .perfbench_out/ records
    python3 perfbench/report.py compare OLD.json NEW.json
    python3 perfbench/report.py backends            # kernel microbenchmarks per backend

``baseline`` groups the records that ``run.py`` saved by workload: for each
end-to-end metric the median and quartiles over seeds, and the traced
per-layer table, one row per workload, stamped with the environment record.
``compare`` takes two summaries or two run records, prints the change of every
end-to-end median and flags changes worse than the metric's bound in
``BENCHMARK.json``; it refuses to compare results whose kernel backends differ.
``backends`` runs the four kernel microbenchmarks under the NumPy fallback and
under numba, and reports numba as not measured where it does not import.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def _records():
    return [json.loads(p.read_text()) for p in sorted(OUT_DIR.glob("*-trace[01].json"))]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _bench_modules():
    sys.path.insert(0, str(HERE))
    import run
    heckezeros = run.import_library()
    import workloads
    return heckezeros, workloads


def baseline(out_path):
    records = _records()
    if not records:
        sys.exit(f"no records under {OUT_DIR}; run perfbench/run.py first")
    envs = {json.dumps(r["env"], sort_keys=True) for r in records}
    seconds = {r["seconds"] for r in records}
    if len(envs) > 1 or len(seconds) > 1:
        sys.exit(f"records mix {len(envs)} environments and {len(seconds)} run lengths; "
                 "keep one of each")
    rows = {}
    for r in records:
        row = rows.setdefault(r["workload"], {"seeds": [], "runs": 0, "end_to_end": {},
                                              "per_layer": {}, "traced_runs": 0,
                                              "all_correct": True})
        row["all_correct"] &= r["correct"]
        target = row["per_layer"] if r["trace"] else row["end_to_end"]
        if r["trace"]:
            row["traced_runs"] += 1
        else:
            row["runs"] += 1
            row["seeds"].append(r["seed"])
        for name, m in r["metrics"].items():
            target.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for row in rows.values():
        for table in (row["end_to_end"], row["per_layer"]):
            for m in table.values():
                values = m.pop("values")
                m["median"] = statistics.median(values)
                m["q1"], m["q3"] = _quartiles(values)
        row["seeds"].sort()
    _, workloads = _bench_modules()
    summary = {"env": json.loads(envs.pop()), "run_seconds": seconds.pop(),
               "held_out_seed": workloads.HELD_OUT_SEED,
               "why": {name: w.why for name, w in workloads.WORKLOADS.items()},
               "workloads": rows}
    Path(out_path).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}: {len(records)} records, workloads {sorted(rows)}")


def _as_summary(path):
    """A baseline summary, or one run record wrapped as a one-run summary."""
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        return data
    kind = "per_layer" if data["trace"] else "end_to_end"
    table = {k: {"median": m["value"], "unit": m["unit"]} for k, m in data["metrics"].items()}
    return {"env": data["env"], "workloads": {data["workload"]: {kind: table}}}


def compare(old_path, new_path):
    old, new = _as_summary(old_path), _as_summary(new_path)
    if old["env"]["backend"] != new["env"]["backend"]:
        print(f"refusing to compare: backend {old['env']['backend']!r} vs "
              f"{new['env']['backend']!r}", file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse_than_bound = 0
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        print(workload)
        a = old["workloads"][workload].get("end_to_end", {})
        b = new["workloads"][workload].get("end_to_end", {})
        for m in spec:
            if m["name"] not in a or m["name"] not in b:
                continue
            x, y = a[m["name"]]["median"], b[m["name"]]["median"]
            change = (y - x) / x if x else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            worse_than_bound += bool(flag)
            print(f"  {m['name']:<18} {x:12.6g} -> {y:12.6g} {m['unit']:<6} "
                  f"{change:+8.2%}{flag}")
    return 1 if worse_than_bound else 0


def _micro():
    heckezeros, workloads = _bench_modules()
    print(json.dumps({"backend": heckezeros.backend(), "us": workloads.micro_rows()}))


def backends():
    results = {}
    for label, disable in (("numba", None), ("numpy", "1")):
        if label == "numba" and importlib.util.find_spec("numba") is None:
            continue
        env = dict(os.environ)
        env.pop("HECKEZEROS_DISABLE_NUMBA", None)
        if disable:
            env["HECKEZEROS_DISABLE_NUMBA"] = disable
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "micro"],
                              env=env, capture_output=True, text=True, check=True, timeout=600)
        out = json.loads(proc.stdout.splitlines()[-1])
        if out["backend"] != label:
            sys.exit(f"asked for the {label} backend, got {out['backend']}")
        results[label] = out["us"]
    print(f"{'kernel call':<20} {'numba':>14} {'numpy':>12} {'speedup':>8}")
    for name, b in results["numpy"].items():
        if "numba" in results:
            a = results["numba"][name]
            print(f"{name:<20} {a:12.1f}us {b:10.1f}us {b / a:7.1f}x")
        else:
            print(f"{name:<20} {'not measured':>14} {b:10.1f}us {'-':>8}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("baseline").add_argument("out")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    sub.add_parser("backends")
    sub.add_parser("micro", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.cmd == "baseline":
        return baseline(args.out) or 0
    if args.cmd == "compare":
        return compare(args.old, args.new)
    if args.cmd == "micro":
        return _micro() or 0
    return backends()


if __name__ == "__main__":
    sys.exit(main())
