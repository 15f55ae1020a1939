#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

The math tests run instantly; the others build the runner (as run.py
does, honouring CARGO_TARGET_DIR) and run it on tiny inputs.
"""
import contextlib
import io
import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PercentileAndQuartiles(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = [10, 20, 30, 40, 50]
        self.assertEqual(run.percentile(values, 0), 10)
        self.assertEqual(run.percentile(values, 100), 50)
        self.assertEqual(run.percentile(values, 50), 30)
        self.assertAlmostEqual(run.percentile(values, 90), 46.0)
        self.assertAlmostEqual(run.percentile([4, 1, 3, 2], 90), 3.7)

    def test_percentile_50_is_the_median(self):
        for values in ([3.5], [2, 1], [9, 1, 5, 7, 3, 8], list(range(101))):
            self.assertAlmostEqual(run.percentile(values, 50),
                                   statistics.median(values))

    def test_percentile_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # Exclusive method: q1 = 2.75, q3 = 8.25, median = 5.5.
        self.assertAlmostEqual(run.quartile_spread(values), 5.5 / 5.5)
        self.assertEqual(run.quartile_spread([2.0] * 10), 0.0)
        self.assertAlmostEqual(run.quartile_spread([100.0, 101.0, 99.0, 100.0]),
                               (100.75 - 99.25) / 100.0)


class EndToEndMath(unittest.TestCase):
    RAW = {
        "pool_start_s": 0.01,
        "setup_s": [0.3, 0.1, 0.2],
        # By item, part and pass: the items' parts at their fastest
        # passes add up to 1, 2, 3, 4 and 10.
        "verdict_ms": [[[1.5, 1.0, 1.2]], [[2.0]], [[2.0, 29.0, 1.0], [2.0, 2.0, 3.0]],
                       [[4.0]], [[10.0]]],
        "cold_ms": [[[0.7, 0.6, 0.9]], [[0.5]]],
        "work_ms": [[[2.0, 1.5]], [[2.0, 1.0], [1.5, 2.5]]],
        "item_insts": [9000, 11000],
        "peak_rss_mib": 42.0,
        "quality": {"total": 10, "precision": 0.7, "recall": 0.9},
    }

    def test_metrics_from_raw_samples(self):
        m = run.end_to_end(self.RAW)
        self.assertAlmostEqual(m["setup_s"][0], 0.21)
        # 20000 instructions over 1.5 + 2.5 ms.
        self.assertAlmostEqual(m["throughput_kinst_s"][0], 5000.0)
        self.assertEqual(m["verdict_p50_ms"][:2], (3.0, "ms"))
        self.assertAlmostEqual(m["verdict_p90_ms"][0], 7.6)
        self.assertEqual(m["verdict_p90_ms"][2], 9)
        self.assertAlmostEqual(m["cold_analyze_ms"][0], 0.55)
        self.assertEqual(m["cold_analyze_ms"][2], 4)
        self.assertEqual(m["type_precision"], (0.7, "ratio", 10))
        self.assertEqual(m["type_recall"], (0.9, "ratio", 10))

    def test_slow_passes_do_not_move_an_item(self):
        raw = dict(self.RAW, verdict_ms=[[[5.0, 9.0, 500.0], [7.0, 2.0, 2.0]]])
        m = run.end_to_end(raw)
        self.assertEqual(m["verdict_p50_ms"][0], 7.0)
        self.assertEqual(m["verdict_p90_ms"][0], 7.0)

    def test_every_declared_metric_is_computed(self):
        names = {m["name"] for m in run.spec()["end_to_end"]}
        self.assertLessEqual(names, set(run.end_to_end(self.RAW)))


class Runner(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runner = run.build()

    def test_name_mapped_scoring_on_a_tiny_seed(self):
        proc = subprocess.run([str(self.runner), "--selftest"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("every truth entry maps", proc.stdout)
        self.assertIn("mapped score equals", proc.stdout)

    def test_digest_gate_fires_on_an_altered_artifact(self):
        cases = [("corpus118", "sarif"), ("xl100k", "icall"),
                 ("serve_edit", "taint")]
        for workload, artifact in cases:
            with self.subTest(workload=workload, artifact=artifact):
                raw = run.run_workload(self.runner, workload, 0, 0.1, False,
                                       smoke=True, tamper=artifact)
                self.assertNotEqual(raw["exit_code"], 0)
                self.assertGreaterEqual(raw["failed"], 1)
                self.assertTrue(any(artifact in e for e in raw["errors"]),
                                raw["errors"])

    def test_untampered_passes_agree(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                raw = run.run_workload(self.runner, workload, 1, 0.1, False,
                                       smoke=True)
                self.assertEqual(raw["exit_code"], 0, raw["errors"])
                self.assertEqual(raw["failed"], 0)
                self.assertGreaterEqual(len(raw["passes"]), 2)
                for name, (value, _, n) in run.end_to_end(raw).items():
                    self.assertGreater(value, 0, name)
                    self.assertGreater(n, 0, name)

    def test_smoke_runs_every_workload_traced(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--smoke"])
        self.assertEqual(code, 0, out.getvalue())
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        layer_names = [m["name"] for m in run.spec()["per_layer"]]
        for workload in run.WORKLOADS:
            for name in layer_names:
                self.assertIn(f"{workload}.{name}", result["metrics"])


if __name__ == "__main__":
    unittest.main()
