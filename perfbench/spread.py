#!/usr/bin/env python3
"""Run-to-run spread of the campaign benchmark over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs perfbench/run.py once per (workload, seed), with BENCHMARK.json's
run_seconds, and reports for each end-to-end metric the median and the
quartile spread (Q3 - Q1) / median over the seeds, as
statistics.quantiles(values, n=4) gives the quartiles. A spread above the
metric's bound in BENCHMARK.json is flagged. --out writes every run's
result and the summary as JSON (the committed baselines in results/ are
such files).
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


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    summary = {}
    ok = True
    for name in args.workloads.split(","):
        runs[name] = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
            if proc.returncode != 0:
                print("%s seed %d: exit code %d" % (name, seed,
                                                    proc.returncode))
                return 1
            result = json.loads(proc.stdout.decode().splitlines()[-1])
            result["seed"] = seed
            runs[name].append(result)
            ok = ok and result["correct"] and result["failed"] == 0
            print("%s seed %d: correct=%s %s" % (
                name, seed, result["correct"],
                " ".join("%s=%.4g" % (k, m["value"])
                         for k, m in result["metrics"].items())),
                flush=True)
        summary[name] = {}
        for metric in runs[name][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            med = statistics.median(values)
            row = {"median": med, "unit": runs[name][0]["metrics"][metric]["unit"]}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3,
                           spread=(q3 - q1) / med if med else None)
            summary[name][metric] = row

    print("\n%-16s %-32s %14s %8s %6s" % ("workload", "metric", "median",
                                         "spread", "bound"))
    for name, metrics in summary.items():
        for metric, row in metrics.items():
            bound = bounds.get(metric)
            spread = row.get("spread")
            flag = ""
            if bound is not None and spread is not None and metric != "setup_s":
                if spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  over bound/3"
            print("%-16s %-32s %14.6g %8s %6s%s" % (
                name, metric, row["median"],
                "-" if spread is None else "%.3f" % spread,
                "-" if bound is None else bound, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": {"machine": platform.machine(),
                                "cpus": os.cpu_count()},
                       "run_seconds": spec["run_seconds"],
                       "seeds": args.seeds, "trace": args.trace,
                       "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")
    print("all runs correct and within bounds" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
