#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Runs every workload run.py knows (BENCHMARK.json's and paper-single) at a
tiny size through perfbench/run.py and checks that every metric
BENCHMARK.json names prints with its unit, that the traced and untraced
runs of a seed print one digest, that each correctness gate fails a run
whose result was deliberately perturbed, and that the progress watchdog
fails a serve client which leaves its finished sessions open instead of
spinning forever.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra, seed=7):
    """Runs one tiny benchmark; returns (report lines, result object)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def digest(lines):
    found = [l.split()[1] for l in lines if l.startswith("digest ")]
    assert len(found) == 1, found
    return found[0]


class MetricsPrint(unittest.TestCase):
    def check(self, workload, trace):
        lines, result = bench(workload, trace)
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        specs = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            pattern = r"^metric %s +\S+ %s(  #.*)?$" % (
                re.escape(m["name"]), re.escape(m["unit"]))
            self.assertTrue(any(re.match(pattern, l) for l in lines),
                            "no report line for " + m["name"])
        return lines, result

    def test_every_workload_and_mode(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                lines0, result0 = self.check(wl, 0)
                lines1, _ = self.check(wl, 1)
                # The traced unit, the traced run's entry-point reference
                # and the untraced run of one seed simulate the same.
                self.assertEqual(digest(lines0), digest(lines1))
                refs = [l.split()[2] for l in lines1
                        if l.startswith("reference digest ")]
                self.assertEqual(refs, [digest(lines0)])
                for m in result0["metrics"].values():
                    self.assertGreater(m["value"], 0)


class Gates(unittest.TestCase):
    def check_fails(self, workload, trace, *extra, expect):
        lines, result = bench(workload, trace, *extra)
        self.assertFalse(result["correct"], lines)
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any(l.startswith("gate FAILED: " + expect)
                            for l in lines), lines)

    def test_repeat_gate(self):
        self.check_fails("paper-single", 0, "--perturb", "repeat",
                         expect="repeat")

    def test_jobs_gate(self):
        for wl in ("codes-sweep", "serve-4ch"):
            with self.subTest(workload=wl):
                self.check_fails(wl, 0, "--perturb", "jobs", expect="jobs")

    def test_traced_gate(self):
        self.check_fails("paper-single", 1, "--perturb", "traced",
                         expect="traced")

    def test_offered_gate(self):
        self.check_fails("serve-4ch", 0, "--perturb", "offered",
                         expect="offered")

    def test_watchdog_fires_on_dry_open_session(self):
        self.check_fails("serve-4ch", 0, "--leave-open",
                         expect="watchdog")


if __name__ == "__main__":
    unittest.main()
