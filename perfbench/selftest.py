"""Self-tests of the benchmark itself (not of confab).

    python3 perfbench/selftest.py

Takes a few minutes: it runs every workload briefly, traced and untraced.
Checks that every metric BENCHMARK.json names is emitted with its unit, that
a different seed reorders the work but leaves results and counts unchanged,
and that a corrupted golden entry is caught, so the checker is live.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
_RUNS: dict[tuple, tuple[dict, dict]] = {}


def bench(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    """(detail, result) of one short run of the benchmark command."""
    key = (workload, trace, seed)
    if key not in _RUNS:
        argv = SPEC["command"][1:] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace),
        ]
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=run.ROOT,
            capture_output=True,
            check=True,
            timeout=300,
        )
        lines = done.stdout.decode().splitlines()
        _RUNS[key] = json.loads(lines[-2]), json.loads(lines[-1])
    return _RUNS[key]


class TestMetricsEmitted(unittest.TestCase):
    def check(self, trace: int, declared: list[dict]) -> None:
        units = {m["name"]: m["unit"] for m in declared}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                _, result = bench(workload, trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"}
                )
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, units)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


class TestSeed(unittest.TestCase):
    def test_plan_is_a_permutation(self):
        for workload in run.WORKLOADS:
            first = run.pass_plan(workload, random.Random(1))
            second = run.pass_plan(workload, random.Random(2))
            self.assertNotEqual(first, second)
            self.assertEqual(sorted(map(run.op_key, first)),
                             sorted(map(run.op_key, second)))
            again = run.pass_plan(workload, random.Random(1))
            self.assertEqual(first, again)

    def test_seed_changes_order_not_results(self):
        detail_1, result_1 = bench("products", 0, seed=1)
        detail_2, result_2 = bench("products", 0, seed=2)
        self.assertNotEqual(detail_1["orders"][0], detail_2["orders"][0])
        self.assertEqual(sorted(detail_1["orders"][0]),
                         sorted(detail_2["orders"][0]))
        self.assertTrue(result_1["correct"] and result_2["correct"])

    def test_counts_repeat_across_seeds(self):
        for workload in ("products", "cli"):
            with self.subTest(workload=workload):
                _, result_1 = bench(workload, 1, seed=1)
                _, result_2 = bench(workload, 1, seed=2)
                for name in run.COUNT_METRICS:
                    self.assertEqual(result_1["metrics"][name],
                                     result_2["metrics"][name], name)


class TestCheckerIsLive(unittest.TestCase):
    def setUp(self):
        self.golden = run.load_golden()

    def test_corrupt_table_dims(self):
        golden = copy.deepcopy(self.golden)
        golden["tables"]["U2xU2"][1] += 1
        out = run.run("products", 3, 0, False, golden)["result"]
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)
        # one pass: a warm-up import, the set-up probes, then the tables
        self.assertEqual(
            out["attempted"], 1 + run.SETUP_PROBES + len(run.PRODUCTS)
        )

    def test_corrupt_cli_stdout(self):
        golden = copy.deepcopy(self.golden)
        entry = golden["cli"]["table2 --format csv --convention paper"]
        entry["stdout"] = entry["stdout"].replace("1", "2", 1)
        out = run.run("cli", 3, 0, False, golden)["result"]
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)

    def test_verify_reports_are_read(self):
        argv = ["verify", "--format", "md"]
        passing = b"PASS a: expected 1; got 1\n1 PASS, 0 FAIL, 0 WARN\n"
        failing = b"PASS a: expected 1; got 1\nFAIL b: expected 1; got 2\n"
        self.assertEqual(run.verify_fail_count(argv, passing), 0)
        self.assertEqual(run.verify_fail_count(argv, failing), 1)
        self.assertEqual(run.verify_fail_count(argv, b""), 1)
        csv_argv = ["verify", "--format", "csv"]
        self.assertEqual(
            run.verify_fail_count(csv_argv, b"status,name\nFAIL,b\nPASS,a\n"), 1
        )
        json_argv = ["verify", "--format", "json"]
        report = {"checks": [{"status": "PASS"}, {"status": "FAIL"}]}
        self.assertEqual(
            run.verify_fail_count(json_argv, json.dumps(report).encode()), 1
        )


class TestBareDirectory(unittest.TestCase):
    def test_refuses_without_program(self):
        # run.py resolves the program from its own location, so a copy of
        # the benchmark directory alone has no src/ to find
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            copy_dir = Path(tmp) / "perfbench"
            copy_dir.mkdir()
            for name in ("run.py", "child.py", "golden.json"):
                shutil.copy(run.HERE / name, copy_dir / name)
            done = subprocess.run(
                [sys.executable, str(copy_dir / "run.py"), "--workload", "cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60,
            )
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
