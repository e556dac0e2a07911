#!/usr/bin/env python3
"""Build and run the BookLeaf step benchmark on one workload.

    python3 stepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
library and the benchmark (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs reuse the build. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics. The program's detail document (segments,
fingerprints, gate errors, the trace file) goes to standard error.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configure once and build the benchmark; serialised by a lock file."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"stepbench: {needed} not found next to stepbench/; "
                     "run from a full checkout of the repository")
    cmake_dir = os.path.join(bdir, "stepbench")
    # The compiler's temporary files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(bdir, "stepbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", cmake_dir, "-j", "4",
                        "--target", "stepbench"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(cmake_dir, "stepbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bdir = build_root()
    try:
        binary = build(bdir)
    except subprocess.CalledProcessError as e:
        sys.exit(f"stepbench: build failed: {e}")
    scratch = os.path.join(bdir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.json"),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=min(170, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        sys.exit("stepbench: the run did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"stepbench: the program failed (exit {proc.returncode})")
    print(lines[-2], file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"stepbench: unexpected result keys {sorted(result)}")
    if result["metrics"] and set(result["metrics"]) != expected_metrics(args.trace):
        sys.exit("stepbench: the metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ expected_metrics(args.trace))}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
