#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the simulator library and the benchmark program
(perfbench/womcode_bench.cc) into .bench_build/perfbench with CMake; later
calls only rebuild what changed. The program's report goes to stdout and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; this script refuses to print a result whose metric set differs.

WORKLOADS lists every workload womcode_bench runs: BENCHMARK.json's, plus
paper-single, which is left out of BENCHMARK.json because its run-to-run
spread on a shared host is wider than any bound it allows (README.md).

Extra arguments after the four above are passed to womcode_bench unchanged
(--scale tiny, --perturb GATE, --leave-open; see womcode_bench.cc).
With --trace 1 the spans are written to
.bench_build/perfbench/spans/<workload>-seed<N>.jsonl.

Exit status is 0 when a result was printed, non-zero (and no result) when
the checkout cannot be built or womcode_bench fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-single", "codes-sweep", "serve-4ch")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds womcode_bench; logs go to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt under %s: run from a source checkout" % root)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "womcode_bench")


def expected_metrics(root, trace):
    """The metric names BENCHMARK.json lists for this mode, if it exists."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = ap.parse_known_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    exe = build(root, build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", root]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("womcode_bench timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("womcode_bench exited with status %d" % proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("womcode_bench printed no JSON result")
    want = expected_metrics(root, args.trace)
    got = set(result["metrics"])
    if result["correct"] and want is not None and got != want:
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
