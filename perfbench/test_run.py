#!/usr/bin/env python3
"""Tests for the benchmark harness itself, at the tiny workload size.

    python3 perfbench/test_run.py     (from the repository root)

Checks that every workload prints every metric named in BENCHMARK.json with
its unit in both modes, that the predicted layer bypasses hold, and that a
wrong recorded outcome or a non-default seed is handled by the outcome check.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def bench(workload, trace, seed=run.DEFAULT_SEED, expected=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if expected is not None:
        cmd += ["--expected", expected]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_metric_tables_match_benchmark_json(self):
        self.assertEqual([m["name"] for m in BENCHMARK["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"]
                          for m in BENCHMARK["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))

    def test_every_workload_prints_every_metric(self):
        layers = {}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, trace=0)
                self.check_result(result, BENCHMARK["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                result = bench(workload, trace=1)
                self.check_result(result, BENCHMARK["per_layer"])
                layers[workload] = {k: v["value"]
                                    for k, v in result["metrics"].items()}
        # The predicted bypasses.
        self.assertEqual(layers["scale_kill"]["checkpoint.dumps"], 0)
        self.assertEqual(layers["scale_kill"]["dfs.ops"], 0)
        self.assertEqual(layers["paper_day"]["bw_domain.flows"], 0)
        self.assertGreater(layers["paper_day"]["checkpoint.dumps"], 0)
        self.assertGreater(layers["colocated_contended"]
                           ["dump_sched.deferred"], 0)
        self.assertGreater(layers["yarn_fb"]["rm.allocations"], 0)
        self.assertEqual(layers["yarn_fb"]["scheduler.pass_calls"], 0)
        for workload, values in layers.items():
            if workload == "yarn_fb":  # no self-profile slots on YARN
                continue
            self.assertAlmostEqual(
                values["scheduler.pass_s"] + values["scheduler.outside_pass_s"],
                values["scheduler.run_s"], delta=0.05 * values[
                    "scheduler.run_s"] + 1e-3, msg=workload)

    def test_wrong_expected_outcome_fails_the_check(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            record = json.load(f)
        record["tiny"]["paper_day"]["wasted_core_h"] *= 1.0 + 1e-12
        path = os.path.join(ROOT, ".bench_build", "wrong_expected.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(record, f)
        try:
            result = bench("paper_day", trace=0, expected=path)
        finally:
            os.remove(path)
        # Every untraced and observability-on pass fails the check; only the
        # set-up-only passes, which produce no outcome, pass.
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 2)
        self.assertGreater(result["attempted"], result["failed"])

    def test_other_seed_checks_traced_against_untraced(self):
        result = bench("yarn_fb", trace=1, seed=12345)
        self.assertTrue(result["correct"])
        self.assertNotEqual(
            result["metrics"]["outcome.wasted_core_h"]["value"],
            bench("yarn_fb", trace=1)["metrics"]["outcome.wasted_core_h"]
            ["value"])


if __name__ == "__main__":
    unittest.main()
