"""Smoke test of the benchmark harness on a graph of a few hundred nodes.

Runs every workload, timed and traced (the traced run includes its
bit-identity checks against the wrapped calls), and checks that the result
line carries exactly the metrics BENCHMARK.json lists. Takes about a minute
after the first build:

    python3 -m unittest discover -s perfbench/tests
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
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--n", "400"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=900)


class SmokeTest(unittest.TestCase):

    def test_every_workload_timed_and_traced(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = bench(ROOT, workload, trace)
                    self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                    result = json.loads(p.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"], p.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_gated_workloads_are_runnable(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(ROOT / "perfbench", root / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = bench(root, run.WORKLOADS[0], 0)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
