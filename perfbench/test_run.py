#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/test_run.py

For every workload in BENCHMARK.json, at the tiny size (--tiny):
- an untraced and a traced run exit 0 with a correct result whose metrics
  are exactly BENCHMARK.json's end-to-end (resp. per-layer) metrics, each
  with its declared unit and a finite value, end-to-end values non-zero;
- a run with an injected wrong output exits non-zero and reports it.
Finally, the runner exits non-zero without a result line in a directory
that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=None):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, out.stderr


class Benchmark(unittest.TestCase):
    def check_metrics(self, workload, trace, declared):
        code, lines, err = run(workload, trace)
        self.assertEqual(code, 0, err)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if trace == 0:
                self.assertNotEqual(got["value"], 0, m["name"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 0, BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, BENCH["per_layer"])

    def test_wrong_output_fails(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, err = run(w, 0, "--inject-fault")
                self.assertNotEqual(code, 0)
                self.assertIn("wrong output", err)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_bare_directory_fails(self):
        # under .bench_build, which dune does not scan
        os.makedirs(".bench_build", exist_ok=True)
        with tempfile.TemporaryDirectory(dir=".bench_build") as bare:
            shutil.copy("BENCHMARK.json", bare)
            for path in BENCH["paths"]:
                shutil.copytree(path, os.path.join(bare, path))
            code, lines, _ = run(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
