"""Smoke test of the benchmark itself; standard library only.

    python3 -m unittest perfbench/test_smoke.py

A tiny run of each workload, traced and untraced, must print every
metric BENCHMARK.json names, with its unit, and fail no op.  The density
table passes alone take a few seconds, so the whole test takes minutes.
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


class SmokeTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp)

    def check_metrics(self, workload: str, trace: int, specs: list[dict]) -> dict:
        proc = run_bench(
            ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--out", str(self.tmp)],
            ROOT,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for spec in specs:
            metric = metrics[spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertTrue(math.isfinite(metric["value"]), spec["name"])
        return metrics

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload, trace=0):
                metrics = self.check_metrics(workload, 0, BENCH["end_to_end"])
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                metrics = self.check_metrics(workload, 1, BENCH["per_layer"])
                self.assertEqual(metrics["error_rate"]["value"], 0)

    def test_refuses_a_directory_without_the_package(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, self.tmp / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "analyze-small", "--seed", "1", "--seconds", "1", "--trace", "0"], self.tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_pinned_rows_match_the_acceptance_table(self):
        tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
        table = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TABLE"
        )
        lines = (ROOT / "perfbench" / "pinned_density.csv").read_text().splitlines()
        self.assertEqual(lines[0], "p,m,n,pct_char,pct_corr,min_pct_char,total,char_count,corr_count")
        pinned = {}
        for line in lines[1:]:
            fields = line.split(",")
            p, m, n, total = (int(fields[i]) for i in (0, 1, 2, 6))
            self.assertEqual(total, (p**m) ** (n * n), line)
            pinned[p, m, n] = tuple(fields[3:6])
        self.assertEqual(pinned, table)


if __name__ == "__main__":
    unittest.main()
