#!/usr/bin/env python3
"""Tests of the campaign benchmark at a tiny budget.

Run from the root of the checkout:

    python3 perfbench/test_run.py

--budget skips the recorded-digest check, so these tests compare runs with
each other instead of with perfbench/digests.json.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET = "24"


def bench(workload, trace, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--budget", BUDGET],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300)
    return proc


def lines(proc):
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


class BenchmarkTest(unittest.TestCase):
    def test_deterministic_values_repeat(self):
        def once(workload):
            run = lines(bench(workload, 0))
            trace = lines(bench(workload, 1))
            self.assertTrue(run[-1]["correct"] and trace[-1]["correct"])
            tm = trace[-1]["metrics"]
            return (run[-1]["metrics"]["unique_bugs"]["value"],
                    run[-2]["info"]["digests"],
                    trace[-2]["info"]["digests"],
                    tm["engines.executions_per_case"]["value"],
                    tm["jsparse.parses_per_case"]["value"])

        first = once("comfort-102")
        self.assertEqual(first, once("comfort-102"))
        # the fork pool reproduces the in-process report
        self.assertEqual(first[1], lines(bench("comfort-102-w2", 0))[-2]["info"]["digests"])

    def test_every_metric_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            out = lines(bench("comfort-latest10", trace))
            result = out[-1]
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})
            for m in spec[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            host = out[0]["host"]
            for field in ["nproc", "domains", "ocaml", "commit", "load1"]:
                self.assertIn(field, host)

    def test_refuses_comfort_variables(self):
        env = dict(os.environ, COMFORT_NO_SHARE="1")
        proc = bench("comfort-latest10", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
