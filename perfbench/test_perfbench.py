#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload for the minimum length through run.py and checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json, with
    its unit, both on its metric line and in the result;
  * a traced run's result holds every per-layer metric of BENCHMARK.json,
    with its unit;
  * a run whose final state is deliberately corrupted (--corrupt) is rejected
    by the correctness check: exit status 1, "correct": false, failed > 0.

Run from the root of the repository (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

def bench(workload, trace=0, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines[:-1], result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_workloads_match_runner(self):
        self.assertEqual(sorted(self.workloads), sorted(run.WORKLOADS))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc, lines, result = bench(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(self.end_to_end))
                for name, unit in self.end_to_end.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                    self.assertGreater(result["metrics"][name]["value"], 0)
                    self.assertTrue(
                        any(l.split()[:1] == [name] and unit in l.split()
                            for l in lines), name + " line missing")

    def test_traced_run_produces_every_per_layer_metric(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc, _, result = bench(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(self.per_layer))
                for name, unit in self.per_layer.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit)

    def test_corrupted_final_state_is_rejected(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc, lines, result = bench(workload, corrupt=True)
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(any("CHECK FAILED" in l for l in lines))


if __name__ == "__main__":
    unittest.main()
