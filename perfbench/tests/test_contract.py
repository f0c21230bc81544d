#!/usr/bin/env python3
"""Holds BENCHMARK.json and what the benchmark prints together.

Run from anywhere:  python3 perfbench/tests/test_contract.py

Builds the benchmark through run.py, runs every workload once untraced and
once traced (short runs: each still takes its minimum op count), and checks
every result line against BENCHMARK.json: the keys, the metric names and
their units, and that the outputs were correct. Takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class Contract(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            for trace in ("0", "1"):
                cls.results[(w["name"], trace)] = run(w["name"], trace)

    def declared(self, trace):
        key = "per_layer" if trace == "1" else "end_to_end"
        return {m["name"]: m["unit"] for m in SPEC[key]}

    def result(self, workload, trace):
        done = self.results[(workload, trace)]
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_result_lines_are_correct(self):
        for (workload, trace) in self.results:
            with self.subTest(workload=workload, trace=trace):
                r = self.result(workload, trace)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(r["correct"], True)
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)

    def test_printed_metrics_are_declared_with_their_units(self):
        for (workload, trace) in self.results:
            declared = self.declared(trace)
            for name, m in self.result(workload, trace)["metrics"].items():
                with self.subTest(workload=workload, trace=trace, metric=name):
                    self.assertIn(name, declared)
                    self.assertEqual(m["unit"], declared[name])
                    self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_prints_every_declared_metric(self):
        for (workload, trace) in self.results:
            with self.subTest(workload=workload, trace=trace):
                printed = set(self.result(workload, trace)["metrics"])
                self.assertEqual(printed, set(self.declared(trace)))

    def test_every_workload_reports_setup_and_memory(self):
        for w in SPEC["workloads"]:
            metrics = self.result(w["name"], "0")["metrics"]
            self.assertGreater(metrics["setup_s"]["value"], 0)
            self.assertGreater(metrics["peak_heap_mb"]["value"], 0)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(tmp) / p)
            done = run(SPEC["workloads"][0]["name"], "0", cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
