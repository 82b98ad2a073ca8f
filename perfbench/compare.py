#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark, or summarise one.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RUNS.jsonl

A result set is the JSON-lines file `run.py --out` appends to: one
{"meta", "result"} record per run. Runs are grouped by workload; untraced
runs give the end-to-end metrics, traced runs the per-layer ones.

For every workload x end-to-end metric it prints the median and quartiles
(statistics.quantiles, n=4) of each set, the spread (quartile distance
over the median) and, with two sets, the change of the median, signed so
that positive is worse, against the metric's bound in BENCHMARK.json:

  ok          within the bound
  better      improved by more than the bound
  REGRESSED   worse by more than the bound
  unresolved  a set's spread exceeds the bound, so the runs cannot tell,
              unless every new run beats every base run

Per-layer metrics have no bound; their medians are printed for reference.
Exits 1 when any metric REGRESSED (two sets) or, for one set, when any
spread exceeds its bound (NOISY).
"""
import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load(path):
    """{(workload, trace): {metric: [values]}} from a result set."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["meta"]["workload"], int(rec["meta"]["trace"]))
            bucket = runs.setdefault(key, {})
            for name, m in rec["result"]["metrics"].items():
                if m["value"] is not None:
                    bucket.setdefault(name, []).append(float(m["value"]))
    return runs


def summary(values):
    """(median, q1, q3, spread) of a list of values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(spec, base, new):
    """Status of one metric and its signed change (positive = worse)."""
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    if spec["better"] == "higher":
        change = -change
    bound = spec["bound"]
    if max(bspread, nspread) > bound:
        lower = spec["better"] == "lower"
        beats = (max(new) < min(base)) if lower else (min(new) > max(base))
        return ("better" if beats else "unresolved"), change
    if change > bound:
        return "REGRESSED", change
    if change < -bound:
        return "better", change
    return "ok", change


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", help="one or two result sets")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("at most two result sets")
    with open(BENCHMARK) as f:
        bench = json.load(f)
    sets = [load(p) for p in args.sets]
    workloads = [w["name"] for w in bench["workloads"]]
    bad = False

    for wl in workloads:
        print(f"== {wl}")
        e2e = [s.get((wl, 0), {}) for s in sets]
        for spec in bench["end_to_end"]:
            name = spec["name"]
            vals = [s.get(name, []) for s in e2e]
            if not all(vals):
                print(f"  {name:22s} missing")
                continue
            cols = []
            for v in vals:
                med, q1, q3, spread = summary(v)
                cols.append(f"n={len(v)} med={fmt(med)} q=[{fmt(q1)}, "
                            f"{fmt(q3)}] spread={spread:.3f}")
            line = f"  {name:22s} " + " | ".join(cols)
            if len(vals) == 2:
                status, change = verdict(spec, vals[0], vals[1])
                line += (f" | change={change:+.3f} bound={spec['bound']} "
                         f"{status}")
                bad |= status == "REGRESSED"
            else:
                spread = summary(vals[0])[3]
                steady = spread < spec["bound"] / 3
                over = spread > spec["bound"]
                line += (f" | bound={spec['bound']} " +
                         ("NOISY" if over else "steady" if steady
                          else "within bound"))
                bad |= over
            print(line)
        layers = [s.get((wl, 1), {}) for s in sets]
        if any(layers):
            print("  per-layer medians:")
            for spec in bench["per_layer"]:
                vals = [s.get(spec["name"]) for s in layers]
                cells = ["-" if not v else fmt(statistics.median(v))
                         for v in vals]
                print(f"    {spec['name']:26s} " + " | ".join(cells) +
                      f" {spec['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
