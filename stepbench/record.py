#!/usr/bin/env python3
"""Run the step benchmark repeatedly and write a result document.

    python3 stepbench/record.py --out stepbench/trajectory/NAME.json \\
        [--runs 10] [--trace] [--first-seed 1] [--label TEXT]

Run it from the repository root. Each run goes through run.py with its own
seed (first-seed, first-seed + 1, ...) and BENCHMARK.json's run_seconds; the
runs of all its workloads are interleaved so a slow spell of the host
spreads over every workload. The document ("bookleaf.stepbench/1") keeps
every run's value of every metric, with the median and quartiles
(statistics.quantiles, n=4) and the gate's failed/attempted counts per
workload. compare.py reads two of them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    doc = {"schema": "bookleaf.stepbench/1", "label": args.label,
           "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
           "run_seconds": seconds, "trace": args.trace, "workloads": {}}
    runs = {n: [] for n in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"record: {name} seed {seed} failed (exit {proc.returncode})")
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs[name].append(result)
            shown = {} if args.trace else result["metrics"]
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} " +
                  ", ".join(f"{k}={v['value']:.6g}" for k, v in shown.items()),
                  file=sys.stderr)

    for name, results in runs.items():
        entry = {"seeds": [r["seed"] for r in results],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {}}
        measured = [r for r in results if r["metrics"]]
        for metric in (measured[0]["metrics"] if measured else {}):
            values = [r["metrics"][metric]["value"] for r in measured]
            entry["metrics"][metric] = {"unit": measured[0]["metrics"][metric]["unit"],
                                        "samples": values, **summarise(values)}
        doc["workloads"][name] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
