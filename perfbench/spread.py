#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--trace 0|1] [--out F]

Runs perfbench/run.py once per seed for each workload (--seconds taken from
BENCHMARK.json) and prints, for every metric, the median over the runs and
the quartile spread (Q3 - Q1) / median, with the quartiles computed by
statistics.quantiles(values, n=4), then the values in seed order. With
--trace 0 each spread is compared with its metric's bound: "ok" means below
a third of the bound, "in bound" below the bound but not below a third of
it, and "WIDE" at or above the bound. The exit status is 1 when any spread
is WIDE, or when a run fails or reports correct=false. --out writes every
value as JSON, {workload: {metric: [value per seed]}}, so two sets of runs
can be compared.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every value to this JSON file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    in_bound = True
    every = {}
    for wl in args.workloads.split(","):
        values = every.setdefault(wl, {})
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit("%s seed %d: run.py exited %d" % (wl, seed,
                                                          proc.returncode))
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if not result["correct"] or result["failed"] != 0:
                sys.exit("%s seed %d: incorrect result" % (wl, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs, seeds %d..%d)" %
              (wl, args.runs, args.first_seed, args.first_seed + args.runs - 1))
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            verdict = ""
            if name in bounds:
                bound = bounds[name]
                in_bound &= spread < bound
                verdict = "bound %.3f %s" % (
                    bound, "ok" if spread < bound / 3 else
                    "in bound" if spread < bound else "WIDE")
            print("  %-36s median %-14.6g spread %.4f  %s" %
                  (name, med, spread, verdict))
            print("      " + " ".join("%.6g" % v for v in vs))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(every, f, indent=1)
    sys.exit(0 if in_bound else 1)


if __name__ == "__main__":
    main()
