#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Runs a small size of every workload, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit and that every
output check passes.  The negative cases (a wrong expected key, one
corrupted shard byte, an engine-changing environment variable) must turn
into counted failures or a refusal, never a crash or a silent pass.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload usca_perfbench runs, including the two that
# BENCHMARK.json does not gate (see README.md, "Workloads").
WORKLOADS = ["cpa_inorder", "cpa_ooo_batched", "spec_ooo_tvla",
             "archive_attack"]
# Large enough for 16/16 key bytes and a TVLA leak, small enough to be quick.
TRACES = "768"


def bench(workload, trace=0, extra=(), env=None):
    """Runs one benchmark invocation; returns (exit code, result or None)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--traces", TRACES,
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is not None and set(result) != {"correct", "attempted", "failed",
                                              "metrics"}:
        result = None
    return proc.returncode, result, proc.stderr


class MetricsTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = bench(workload, trace)
                    self.assertIsNotNone(result, err)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"], err)
                    self.assertGreaterEqual(result["attempted"], int(TRACES))
                    self.assertEqual(result["failed"], 0, err)
                    self.check_metrics(result, declared)
                    if trace == 0:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0)


class NegativeTest(unittest.TestCase):
    def assert_counted_failure(self, code, result, err):
        self.assertIsNotNone(result, "no result printed: " + err)
        self.assertEqual(code, 1, err)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertIn("FAILED CHECK", err)

    def test_wrong_expected_key_fails_every_trace(self):
        for workload in ("cpa_inorder", "cpa_ooo_batched", "archive_attack"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = bench(workload, trace,
                                              ["--inject", "wrong_key"])
                    self.assert_counted_failure(code, result, err)
                    self.assertEqual(result["failed"], result["attempted"])
                    self.assertIn("key byte 0 not recovered", err)

    def test_corrupted_shard_byte_is_counted(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, result, err = bench("archive_attack", trace,
                                          ["--inject", "corrupt_shard"])
                self.assert_counted_failure(code, result, err)

    def test_engine_environment_is_refused(self):
        env = dict(os.environ, USCA_SIM_BATCH="0")
        code, result, err = bench("cpa_inorder", 0, env=env)
        self.assertEqual(code, 2)
        self.assertIsNone(result)
        self.assertIn("USCA_SIM_BATCH", err)


if __name__ == "__main__":
    unittest.main()
