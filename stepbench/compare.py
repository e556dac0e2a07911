#!/usr/bin/env python3
"""Compare two step-benchmark result documents, one row per workload x metric.

    python3 stepbench/compare.py BASE.json CHANGE.json

Both documents come from record.py with the same settings. Each row gives
the medians and quartiles of both sides, the change of the median, the
pairs the change won, and a verdict:

  better      the change wins at least nine tenths of the pairs (run i of
              each side; ties count for neither) and the medians differ by
              more than the base's spread (q3 - q1); or every run of the
              change beats every run of the base
  unresolved  otherwise, when either side's spread is wider than the
              metric's bound in BENCHMARK.json
  worse       otherwise, when the change's median is worse than the base's
              by more than the bound
  unchanged   otherwise

Per-layer metrics have no bound: they are better or worse by the pair rule
alone, unchanged when both sides read the same, and unresolved otherwise.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def verdict(base, change, lower_is_better, bound):
    sign = -1.0 if lower_is_better else 1.0
    pairs = list(zip(base["samples"], change["samples"]))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    gap = abs(change["median"] - base["median"])
    base_spread = base["q3"] - base["q1"]
    every_run_better = (max(change["samples"]) < min(base["samples"]) if lower_is_better
                        else min(change["samples"]) > max(base["samples"]))
    if (pairs and wins >= 0.9 * len(pairs) and gap > base_spread) or every_run_better:
        return "better", wins, len(pairs)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and gap > base_spread:
            return "worse", wins, len(pairs)
        same = set(base["samples"]) == set(change["samples"]) and gap == 0
        return ("unchanged" if same else "unresolved"), wins, len(pairs)
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
                 for s in (base, change))
    if spread > bound:
        return "unresolved", wins, len(pairs)
    worse_by = -sign * (change["median"] - base["median"]) / abs(base["median"])
    return ("worse" if worse_by > bound else "unchanged"), wins, len(pairs)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        change = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def spread(s):
        return f"{s['median']:.5g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    print(f"{'workload':26} {'metric':28} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'delta':>8} {'wins':>6}  verdict")
    for workload, b in base["workloads"].items():
        c = change["workloads"].get(workload)
        if c is None:
            continue
        for name, bm in b["metrics"].items():
            cm = c["metrics"].get(name)
            if cm is None or name not in metrics:
                continue
            spec_m = metrics[name]
            v, wins, n = verdict(bm, cm, spec_m["better"] == "lower", spec_m.get("bound"))
            delta = (cm["median"] - bm["median"]) / abs(bm["median"]) if bm["median"] else 0.0
            print(f"{workload:26} {name:28} {spread(bm):34} {spread(cm):34} "
                  f"{100 * delta:>+7.1f}% {wins:>3}/{n:<2}  {v}")
        print(f"{workload:26} {'gate failed/attempted':28} "
              f"{b['failed']}/{b['attempted']} -> {c['failed']}/{c['attempted']}")


if __name__ == "__main__":
    main()
