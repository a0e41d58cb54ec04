"""Self-test of the benchmark at small scale (about 15 seconds).

    python3 perfbench/selftest.py

It runs every workload at its small size through the same path as the
benchmark, checks that every metric BENCHMARK.json names is emitted with
its unit, and checks that each workload's output check fails on a
corrupted result.
"""
from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPECS = json.load(fh)
NAMES = [w["name"] for w in SPECS["workloads"]] + run.HELD_OUT


class MetricsEmitted(unittest.TestCase):
    def test_workloads_match_benchmark_json_and_held_out(self):
        self.assertCountEqual(workloads.WORKLOADS, NAMES)
        self.assertCountEqual(workloads.SMALL, NAMES)

    def test_every_metric_emitted(self):
        # a layer each workload loads, which its traced run must count
        loaded = {"delta-z2abc": "ldelta.median_calls",
                  "delta-heis": "ldelta.median_calls",
                  "ac-f2": "convexity.pairs",
                  "dehn-z2": "vankampen.split_loop_calls"}
        for name in NAMES:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, record = run.benchmark(name, 0, 0, trace, SPECS,
                                                   small=True)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics),
                                     [m["name"] for m in SPECS[kind]])
                    for spec in SPECS[kind]:
                        metric = metrics[spec["name"]]
                        self.assertEqual(metric["unit"], spec["unit"])
                        self.assertIsInstance(metric["value"], (int, float))
                        self.assertNotIsInstance(metric["value"], bool)
                    if trace:
                        self.assertGreater(metrics[loaded[name]]["value"], 0)
                    else:
                        for spec in SPECS[kind]:
                            self.assertGreater(metrics[spec["name"]]["value"], 0)
                    self.assertEqual(len(record["digests"]), 1)
                    self.assertEqual(record["metadata"]["seed"], 0)


class ChecksDetectCorruption(unittest.TestCase):
    def test_corrupted_result_fails_its_check(self):
        for name in NAMES:
            with self.subTest(workload=name):
                wl = workloads.workload(name, small=True)
                state = wl.setup()
                result = wl.run(state, 0)
                # delta-heis is left out: at full size its witness check
                # fails on the program's unsound pruning bound, and this
                # test is about the benchmark's checks, not that defect.
                if name != "delta-heis":
                    self.assertTrue(all(ok for _, ok in wl.check(state, result)))
                bad = wl.check(state, wl.corrupt(result))
                self.assertFalse(all(ok for _, ok in bad))

    def test_digest_mismatch_between_repetitions_fails(self):
        reps = [{"checks": [["c", True]], "digest": "a"},
                {"checks": [["c", True]], "digest": "b"}]
        attempted, failed = run.checks_summary(reps)
        self.assertEqual(attempted, 3)
        self.assertEqual(len(failed), 1)


if __name__ == "__main__":
    unittest.main()
