#!/usr/bin/env python3
"""Tests of the benchmark itself.

Usage (from the root of a checkout):
  python3 perfbench/test_perfbench.py

Builds the driver and the unit tests of its pure helpers (logic_test.cc)
the same way run.py does, runs those unit tests, then runs the repeatability
tripwire: a short traced v2v_cold twice on one seed, whose modeled I/O and
buffer-pool counts must come out identical.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# The counts one client on the small LRU pool makes exactly repeatable.
REPEATABLE = ("io_ms", "engine.misses_per_q", "engine.device_reads_per_q")


def traced_cold_run(driver, seed):
    proc = subprocess.run(
        [driver, "--workload", "v2v_cold", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=run.DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError("driver exited %d" % proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = run.build_dir()
        cls.driver = run.build(out)
        cls.logic_test = run.build(out, "perfbench_logic_test", required=False)

    def test_logic(self):
        if self.logic_test is None:
            self.skipTest("GTest not installed; perfbench_logic_test not built")
        self.assertEqual(subprocess.run([self.logic_test]).returncode, 0)

    def test_cold_counts_repeat_exactly(self):
        first = traced_cold_run(self.driver, 7)
        second = traced_cold_run(self.driver, 7)
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        for name in REPEATABLE:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            self.assertGreater(a, 0, name)
            self.assertEqual(a, b, name)


if __name__ == "__main__":
    unittest.main()
