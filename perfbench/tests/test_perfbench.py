"""Tests of the benchmark itself (not of folclass).

    python3 -m pytest perfbench/tests      # or: python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
        times = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        t = tracing.Tracer("synthetic", clock=lambda: next(times), keep=10)
        t.open("cli.main")
        t.open("cli.verify_completeness")
        t.open("enumerator.classify")
        t.close()
        t.close()
        t.open("cli.verify_soundness")
        t.close()
        t.close()
        self.assertEqual(t.self_s("cli.main"), 3.0)
        self.assertEqual(t.self_s("cli.verify_completeness"), 2.0)
        self.assertEqual(t.self_s("enumerator.classify"), 1.0)
        self.assertEqual(t.self_s("cli.verify_soundness"), 4.0)
        self.assertEqual(t.layer_self_s("enumerator"), 6.0)
        layers = sum(t.layer_self_s(layer) for layer in tracing.LAYER_SELF)
        self.assertEqual(layers, t.total_s("cli.main"))
        by_name = {s[1]: s for s in t.spans}
        self.assertEqual(by_name["enumerator.classify"][4], by_name["cli.verify_completeness"][0])
        self.assertIsNone(by_name["cli.main"][4])

    def test_spans_beyond_keep_are_only_aggregated(self):
        t = tracing.Tracer("keep", keep=2)
        for _ in range(5):
            with t.span("derivation.delta_squared"):
                pass
        self.assertEqual(len(t.spans), 2)
        self.assertEqual(t.calls("derivation.delta_squared"), 5)


class Speed(unittest.TestCase):
    def test_sampler_probes_while_the_work_runs(self):
        sampler = speed.Sampler(period=0.02)
        with sampler:
            started = time.perf_counter()
            while time.perf_counter() - started < 0.3:
                pass
        inside = len(sampler.samples) - 2 * speed.EDGE_PROBES
        self.assertGreaterEqual(inside, 5)
        self.assertAlmostEqual(sampler.spent_cpu_s, sum(sampler.samples[speed.EDGE_PROBES : -speed.EDGE_PROBES]))
        self.assertGreaterEqual(sampler.spent_wall_s, sampler.spent_cpu_s * 0.9)
        self.assertLess(sampler.spent_wall_s, 0.3)
        self.assertAlmostEqual(sampler.factor(), speed.REFERENCE_PROBE_S * len(sampler.samples) / sum(sampler.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class VerdictChecks(unittest.TestCase):
    def _report(self, q, valid=None):
        case = {
            "soundness": {"passed": True},
            "completeness": {
                "valid_count": workloads.gl2_order(q) if valid is None else valid,
                "scalar_classes": workloads.pgl2_order(q),
                "matched": workloads.pgl2_order(q),
            },
        }
        return {"findings": 0, "results": [dict(case, case=name) for name in ("I", "II", "III", "IV")]}

    def _summary(self, checks):
        rep = {"attempted": checks.attempted, "failed": checks.failed, "wall_s": 1.0, "cpu_s": 1.0,
               "peak_rss_mb": 1.0, "setup_s": 0.1, "trace": False}
        args = argparse.Namespace(trace=0)
        return run.summarize(args, [rep], [rep])

    def test_closed_form_report_passes(self):
        checks = workloads.Checks()
        workloads.check_verify_report(self._report(8), 0, 8, checks)
        self.assertEqual((checks.attempted, checks.failed), (19, 0))
        self.assertTrue(self._summary(checks)["correct"])

    def test_wrong_valid_count_fails(self):
        checks = workloads.Checks()
        workloads.check_verify_report(self._report(8, valid=3527), 0, 8, checks)
        summary = self._summary(checks)
        self.assertGreater(summary["failed"] / summary["attempted"], 0)
        self.assertFalse(summary["correct"])

    def test_nonzero_exit_and_missing_cases_fail(self):
        checks = workloads.Checks()
        workloads.check_verify_report({"findings": 0, "results": []}, 2, 8, checks)
        self.assertEqual(checks.failed, 2)

    def test_oracle_counts(self):
        checks = workloads.Checks()
        workloads.check_oracle_counts(65535, 0, 180, 4, checks)
        self.assertEqual(checks.failed, 0)
        checks = workloads.Checks()
        workloads.check_oracle_counts(65535, 1, 179, 4, checks)
        self.assertEqual(checks.failed, 2)
        self.assertEqual(checks.attempted, 65537)


class Harness(unittest.TestCase):
    def _result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_benchmark_json_matches_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), workloads.WORKLOADS)
        self.assertEqual(tuple((m["name"], m["unit"]) for m in bench["end_to_end"]), run.END_TO_END)
        self.assertEqual(tuple((m["name"], m["unit"], m["better"]) for m in bench["per_layer"]), tracing.PER_LAYER)

    def test_smoke_every_workload(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = self._result(_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual([m for m, _u in run.END_TO_END], list(result["metrics"]))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_smoke_traced_layers_add_up(self):
        result = self._result(_bench("--workload", "verify-gf8", "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke"))
        self.assertTrue(result["correct"])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertEqual(list(metrics), [name for name, _u, _b in tracing.PER_LAYER])
        self.assertEqual(metrics["classifier.classify_calls"], 4 * workloads.pgl2_order(4))
        self.assertGreater(metrics["classifier.match_ratio"], 0)
        self.assertLess(abs(metrics["trace.unattributed_s"]), 0.05 * metrics["trace.wall_s"])

    def test_fails_without_the_package(self):
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "verify-gf8", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
