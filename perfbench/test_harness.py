#!/usr/bin/env python3
"""Fast self-check of the perfbench harness.

Run from the root of a checkout (builds perfbench_driver on first use):

    python3 perfbench/test_harness.py

For the cheapest cell of every workload it checks that the timed run prints
exactly the end-to-end metrics of BENCHMARK.json and the traced run exactly
its per-layer metrics, each value a number carrying the declared unit, and
that the verdict gate fails the run when one expected verdict is flipped.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, *extra):
    """Run the benchmark on the cheapest cell; return (exit code, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--smallest", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_metric_names_and_units(self):
        for w in SPEC["workloads"]:
            for trace, declared in (("0", SPEC["end_to_end"]),
                                    ("1", SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result = run(w["name"], "--trace", trace)
                    self.assertEqual(code, 0)
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, declared)

    def test_flipped_verdict_fails_the_gate(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result = run(w["name"], "--trace", "0", "--flip-expected")
                self.assertNotEqual(code, 0)
                self.assertIs(result["correct"], False)
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
