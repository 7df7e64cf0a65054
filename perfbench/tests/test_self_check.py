#!/usr/bin/env python3
"""Self-check of the benchmark's output checks.

    python3 perfbench/tests/test_self_check.py      (from the repository root)

Each deliberately injected fault must make the run report failure
(`correct` false, `failed` > 0), while an uninjected run -- at a default seed
and at a held-out seed -- must pass.  Uses the two cheap workloads with
--seconds 1, so every run is one iteration (two when traced); about a
minute in total after the build.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def run(workload, seed, trace=0, inject="none"):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--inject", inject],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class SelfCheck(unittest.TestCase):
    def assert_failed(self, result):
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], result["failed"])

    def test_default_seed_passes(self):
        result = run("churn-repair", 410, trace=1)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertIn("trace.overhead_s", result["metrics"])

    def test_held_out_seed_passes(self):
        result = run("churn-repair", 4242, trace=1)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_wrong_pinned_checksum_fails(self):
        self.assert_failed(run("churn-repair", 410, inject="pinned-checksum"))

    def test_accounting_violation_fails(self):
        self.assert_failed(run("load-steady", 9, inject="accounting"))
        self.assert_failed(run("churn-repair", 7, inject="accounting"))

    def test_traced_checksum_mismatch_fails(self):
        result = run("churn-repair", 7, trace=1, inject="trace-mismatch")
        self.assert_failed(result)
        # Only the traced iteration is wrong; the untraced one still passes.
        self.assertEqual(result["failed"], result["attempted"] // 2)


if __name__ == "__main__":
    unittest.main()
