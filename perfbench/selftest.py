"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at the tiny size, with and without tracing, and checks
the output contract: every metric of BENCHMARK.json is printed with its
unit, and no operation fails. Then checks that a corrupted reference makes
operations fail, and that the runner refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"
WORKLOADS = ("sweep", "oracle")


def bench(root=ROOT, *args):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--size", "tiny",
         "--seconds", "0", *args],
        capture_output=True, text=True, timeout=170, cwd=root)
    return proc


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_tree(dest: Path, with_sources: bool) -> Path:
    """A fresh copy of BENCHMARK.json and the benchmark's files, and of the
    rlnoc package when `with_sources`, under `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    (dest / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, dest / "perfbench")
    if with_sources:
        shutil.copytree(ROOT / "src" / "rlnoc", dest / "src" / "rlnoc",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
            cls.spec = json.load(handle)
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def test_every_metric_emitted_and_no_op_fails(self):
        for workload in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = result_of(bench(ROOT, "--workload", workload,
                                             "--seed", "1", "--trace", trace))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(emitted, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])

    def test_held_out_seed_runs_invariant_checks(self):
        result = result_of(bench(ROOT, "--workload", "oracle", "--seed", "987"))
        self.assertEqual(result["failed"], 0)

    def test_corrupted_reference_fails_ops(self):
        with open(HERE / "references.json", "r", encoding="utf-8") as handle:
            pinned = json.load(handle)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                corrupt = json.loads(json.dumps(pinned))
                key = next(k for k in sorted(corrupt["tiny"]) if k.startswith(workload))
                corrupt["tiny"][key] = "0" * 64
                tree = copy_tree(SCRATCH / f"corrupt-{workload}", with_sources=True)
                (tree / "perfbench" / "references.json").write_text(
                    json.dumps(corrupt), encoding="utf-8")
                result = result_of(bench(tree, "--workload", workload,
                                         "--seed", str(pinned["seed"])))
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])

    def test_refuses_to_run_without_sources(self):
        bare = copy_tree(SCRATCH / "bare", with_sources=False)
        proc = bench(bare, "--workload", "sweep")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
