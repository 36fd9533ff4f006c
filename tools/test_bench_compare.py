#!/usr/bin/env python3
"""Unit checks for tools/bench_compare.py's refusal rules.

Runs the script on small hand-written benchmark JSON files and checks its
exit status.  Run with `python3 tools/test_bench_compare.py`.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")

SHARDED_PAIR = "BM_NetworkStepSharded/t4x4:BM_NetworkStepSharded/t1x1:0.4"
ALLOC_PAIR = ("BM_NetworkStepShardedAlloc/shard_t4x4:"
              "BM_NetworkStepShardedAlloc/serial_t4x4:0.85")
SERIAL_PAIR = "BM_NetworkStepSaturated:BM_NetworkStepIdle:1000"


def bench_doc(num_cpus):
    times = {
        "BM_NetworkStepIdle": 10.0,
        "BM_NetworkStepModerateLoad": 100.0,
        "BM_NetworkStepSaturated": 400.0,
        "BM_NetworkStepSharded/t1x1": 1000.0,
        "BM_NetworkStepSharded/t4x4": 300.0,
        "BM_NetworkStepShardedAlloc/serial_t4x4": 500.0,
        "BM_NetworkStepShardedAlloc/shard_t4x4": 400.0,
    }
    return {
        "context": {"num_cpus": num_cpus, "load_avg": [0.0, 0.0, 0.0],
                    "ftmesh_build_type": "release",
                    "library_build_type": "release"},
        "benchmarks": [{"name": n, "real_time": t, "time_unit": "ns"}
                       for n, t in times.items()],
    }


class PairThreadRefusal(unittest.TestCase):
    def run_compare(self, num_cpus, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name in ("baseline.json", "current.json"):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(bench_doc(num_cpus), f)
                paths.append(path)
            proc = subprocess.run([sys.executable, SCRIPT] + paths +
                                  list(extra), capture_output=True,
                                  text=True, check=False)
            return proc.returncode, proc.stderr

    def test_one_cpu_refuses_sharded_pair(self):
        code, err = self.run_compare(1, "--pair", SHARDED_PAIR)
        self.assertEqual(code, 2, err)
        self.assertIn("num_cpus 1", err)

    def test_one_cpu_refuses_sharded_alloc_pair(self):
        code, err = self.run_compare(1, "--pair", ALLOC_PAIR)
        self.assertEqual(code, 2, err)

    def test_enough_cpus_runs_sharded_pairs(self):
        code, err = self.run_compare(4, "--pair", SHARDED_PAIR, "--pair",
                                     ALLOC_PAIR)
        self.assertEqual(code, 0, err)

    def test_one_cpu_keeps_serial_pairs(self):
        code, err = self.run_compare(1, "--pair", SERIAL_PAIR)
        self.assertEqual(code, 0, err)


if __name__ == "__main__":
    unittest.main()
