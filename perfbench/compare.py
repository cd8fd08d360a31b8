#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py --parent PARENT_DIR --change CHANGE_DIR

Each side is a directory of result files (.bench_out/result-*.json, one per
run of perfbench/run.py) or a list of such files. For every workload and
metric it prints both sides' medians and quartiles, the share of pairs the
change won (runs are paired by seed), and a verdict:

  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's own spread (its quartile
              distance); needs at least ten pairs and no more failed
              operations than the parent;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (per-layer metrics, which
              have no bound: it lost 9/10 of the pairs by more than the
              parent's spread);
  unresolved  the parent's spread is wider than the bound, and not every
              change run is better than every parent run;
  unchanged   otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    runs = []
    for path in paths:
        files = sorted(glob.glob(os.path.join(path, "result-*.json"))) if os.path.isdir(path) else [path]
        for name in files:
            with open(name) as f:
                runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent, change):
    """(parent value, change value) pairs, matched by seed when the seeds match."""
    by_seed = {run["seed"]: value for run, value in parent}
    matched = [(by_seed[run["seed"]], value) for run, value in change if run["seed"] in by_seed]
    if matched:
        return matched
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(p_values, c_values, paired, lower_better, bound, gain_allowed):
    sign = -1 if lower_better else 1
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    losses = sum(1 for p, c in paired if sign * (c - p) < 0)
    p_med, c_med = statistics.median(p_values), statistics.median(c_values)
    q1, q3 = quartiles(p_values)
    spread = q3 - q1
    gain = sign * (c_med - p_med)
    n = len(paired)
    if gain_allowed and n >= MIN_PAIRS and wins >= WIN_SHARE * n and gain > spread:
        return "improved", wins, n
    all_better = all(sign * (c - p) > 0 for c in c_values for p in p_values)
    if bound is None:
        if n and losses >= WIN_SHARE * n and -gain > spread:
            return "worse", wins, n
        return "unchanged", wins, n
    if -gain > bound * abs(p_med):
        return "worse", wins, n
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved", wins, n
    return "unchanged", wins, n


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("compare: no result files on one side", file=sys.stderr)
        return 2

    for workload in sorted({run["workload"] for run in parent + change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            print("%s: results on one side only, skipped\n" % workload)
            continue
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        print("%s: %d parent run(s), %d change run(s); failed operations %d -> %d"
              % (workload, len(p_runs), len(c_runs), p_failed, c_failed))
        print("  %-26s %-34s %-34s %8s %6s  %s" % ("metric", "parent median [q1, q3]",
                                                 "change median [q1, q3]", "delta", "won", "verdict"))
        metrics = [m for m in better if any(m in r["metrics"] for r in p_runs)]
        for metric in metrics:
            p = [(r, r["metrics"][metric]["value"]) for r in p_runs if metric in r["metrics"]]
            c = [(r, r["metrics"][metric]["value"]) for r in c_runs if metric in r["metrics"]]
            if not p or not c:
                continue
            p_values, c_values = [v for _, v in p], [v for _, v in c]
            result, wins, n = verdict(p_values, c_values, pairs(p, c), better[metric] == "lower",
                                      bounds.get(metric), c_failed <= p_failed)
            p_med, c_med = statistics.median(p_values), statistics.median(c_values)
            delta = (c_med - p_med) / abs(p_med) * 100 if p_med else 0.0
            cell = lambda med, vals: "%.4g [%.4g, %.4g]" % ((med,) + quartiles(vals))
            print("  %-26s %-34s %-34s %+7.1f%% %2d/%-3d  %s" % (
                metric, cell(p_med, p_values), cell(c_med, c_values), delta, wins, n, result))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
