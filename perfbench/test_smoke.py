"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

Runs every workload in both modes with ``--smoke`` and checks the result
line against the metric lists of BENCHMARK.json, so a broken harness fails
in seconds instead of after a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_in_both_modes(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(
                        "--workload", workload, "--seed", str(checks.DEFAULT_SEED),
                        "--seconds", "0.3", "--trace", str(trace), "--smoke",
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_line(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in (m["name"] for m in SPEC["end_to_end"] if trace == 0):
                        self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_other_seed_checks_invariants(self):
        proc = run_bench("--workload", "small-elections", "--seed", "7", "--seconds", "0.3", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result_line(proc)["correct"], proc.stdout)

    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--workload", "small-elections", "--seconds", "0.3", "--smoke", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_compare_flags_changed_reports(self):
        pinned = checks.load_reference("ballots-repeated", smoke=True)["reports"][0]
        self.assertEqual(checks.compare(pinned, pinned), [])
        exact = dict(pinned["exact"], ranking="0" * 16)
        rates = [r + 10 * checks.FLOAT_TOL for r in pinned["floats"]["rates"]]
        changed = {"exact": exact, "floats": dict(pinned["floats"], rates=rates)}
        problems = checks.compare(changed, pinned)
        self.assertEqual(len(problems), 2, problems)


if __name__ == "__main__":
    unittest.main()
