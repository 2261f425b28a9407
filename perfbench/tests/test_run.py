#!/usr/bin/env python3
"""Tests of the benchmark itself, at the small --smoke size.

    python3 perfbench/tests/test_run.py

Builds the benchmark binary through run.py (like a measurement would), then checks
for each workload that an untraced and a traced run pass the correctness
gate with no failed operation and print exactly the metrics BENCHMARK.json
names; and that run.py refuses to run without the product sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        section = "per_layer" if trace else "end_to_end"
        done = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--smoke"])
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in contract()[section]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_every_workload_untraced_and_traced(self):
        # saturated_paper runs the same way but is outside the contract.
        names = [w["name"] for w in contract()["workloads"]]
        for workload in names + ["saturated_paper"]:
            with self.subTest(workload=workload, trace=0):
                metrics = self.check_run(workload, 0)["metrics"]
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                self.check_run(workload, 1)
                trace_file = (ROOT / ".bench_out" /
                              f"{workload}-seed0.trace.json")
                with open(trace_file) as f:
                    doc = json.load(f)
                self.assertTrue(doc["trace"]["spans"])
                self.assertIn("timers", doc["registry"])

    def test_same_seed_same_outcome(self):
        first = self.check_run("saturated_paper", 0)["metrics"]
        again = self.check_run("saturated_paper", 0)["metrics"]
        for name in ("schedule_cost_usd", "committed_ratio"):
            self.assertEqual(first[name]["value"], again[name]["value"])

    def test_unknown_workload_is_refused(self):
        done = run(["--workload", "nope", "--seed", "0", "--trace", "0"])
        self.assertNotEqual(done.returncode, 0)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_product_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "region_day", "--seed", "0", "--seconds", "1", "--trace",
                 "0"], cwd=bare, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
