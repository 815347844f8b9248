#!/usr/bin/env python3
"""Compares two sets of bench/e2e results, metric by metric.

    python3 bench/e2e/compare.py --base a1.json a2.json --new b1.json \
        [--benchmark BENCHMARK.json]

Each file is what `run.sh --out FILE` writes (a JSON array with one object
per workload run) or one object written by `cmpbench --json`. Runs are
pooled per side. For every (workload, end-to-end metric) it prints each
side's median and quartiles and a verdict:

  better      the new side wins at least 9/10 of all (base, new) pairs,
              ties counting for neither, its median differs from the base
              median by more than the base's quartile distance, at least
              ten runs per side were made, and no more operations failed;
  regressed   the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json;
  unresolved  a side's quartile distance, relative to its median, is wider
              than the bound, and not every new run beats every base run;
  no change   anything else.

Exits 1 if any row regressed, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        runs.extend(data if isinstance(data, list) else [data])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def by_workload(runs, metric):
    out = {}
    for run in runs:
        entry = run.get("end_to_end", {}).get(metric)
        if entry is not None:
            out.setdefault(run["workload"], []).append(entry["value"])
    return out


def failures(runs, workload):
    return sum(r.get("failed", 0) for r in runs if r["workload"] == workload)


def verdict(base, new, better, bound, failed_base, failed_new):
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    q1b, q3b = quartiles(base)
    q1n, q3n = quartiles(new)
    spread = max((q3b - q1b) / abs(mb) if mb else 0.0,
                 (q3n - q1n) / abs(mn) if mn else 0.0)
    gain = sign * (mn - mb)  # > 0: new reads better
    worse = -gain / abs(mb) if mb else 0.0
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    wins = sum(1 for b in base for n in new if sign * (n - b) > 0)
    win_frac = wins / (len(base) * len(new))
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if (gain > q3b - q1b and win_frac >= 0.9 and
            min(len(base), len(new)) >= MIN_PAIRS and
            failed_new <= failed_base):
        return "better"
    return "no change"


def cell(values):
    q1, q3 = quartiles(values)
    return (f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] "
            f"n={len(values)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "..",
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    for side, runs in (("base", base_runs), ("new", new_runs)):
        bad = [r["workload"] for r in runs if not r.get("verified", False)]
        if bad:
            print(f"warning: {side} has unverified runs: {', '.join(bad)}")

    print(f"{'workload':20s} {'metric':16s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    regressed = False
    for wl in spec["workloads"]:
        name = wl["name"]
        for m in spec["end_to_end"]:
            base = by_workload(base_runs, m["name"]).get(name, [])
            new = by_workload(new_runs, m["name"]).get(name, [])
            if not base or not new:
                print(f"{name:20s} {m['name']:16s} missing on "
                      f"{'base' if not base else 'new'} side")
                continue
            v = verdict(base, new, m["better"], m["bound"],
                        failures(base_runs, name), failures(new_runs, name))
            regressed |= v == "regressed"
            mb, mn = statistics.median(base), statistics.median(new)
            change = (mn - mb) / abs(mb) if mb else 0.0
            print(f"{name:20s} {m['name']:16s} {cell(base):>34s} "
                  f"{cell(new):>34s} {change:+8.1%} {m['bound']:6.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
