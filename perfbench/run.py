#!/usr/bin/env python3
"""DART campaign benchmark: builds the benchmark binary and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload minisip_audit --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the DART
libraries in Release plus campaign_bench) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, relative to the repository root. Each
workload runs in a process of its own, so its peak RSS is its own. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the run also writes a Chrome
trace-event file next to the build (its path is printed on stderr).
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ["minisip_audit", "ns_verify_d3", "ac_random_d64", "ns_dy_d3_jobs2"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs cmd with its output captured; on failure shows it on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("timed out: %s\n" % " ".join(cmd))
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("failed: %s\n" % " ".join(cmd))
        return False
    return True


def build():
    """Configures (once) and builds campaign_bench; returns its path."""
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            return None
    cmd = ["cmake", "--build", out, "--target", "campaign_bench", "-j", "4"]
    if not run_quiet(cmd, max(1, deadline - time.monotonic())):
        return None
    return os.path.join(out, "campaign_bench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s: timed out\n" % workload)
        return None
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n%s: exit code %d\n"
                         % (workload, proc.returncode))
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("%s: no result line\n" % workload)
        return None
    print("\n".join(lines[:-1]))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    binary = build()
    if binary is None:
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(binary, name, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        results[name] = result

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # One row per workload, then one summary object.
    print("%-16s %8s %8s  %s" % ("workload", "attempted", "failed", "metrics"))
    for name, r in results.items():
        metrics = ["failed_frac=%.6g ratio" % (r["failed"] / r["attempted"])]
        metrics += ["%s=%.6g %s" % (k, m["value"], m["unit"])
                    for k, m in r["metrics"].items()]
        print("%-16s %8d %8d  %s" % (name, r["attempted"], r["failed"],
                                     ", ".join(metrics)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
