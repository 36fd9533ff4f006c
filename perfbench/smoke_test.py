#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size of every workload.

    python3 perfbench/smoke_test.py

For each workload and both modes it checks that run.py exits 0, that the
last line is the contract object (correct, attempted, failed, metrics),
and that every metric BENCHMARK.json names for the mode is printed, by
name and with its unit, both in the human-readable report and in the
JSON. It then corrupts one repetition's report digest (one single-run
workload, the campaign, and a traced run) and checks that the mismatch is
counted as a failed run, reported as incorrect, and fails the exit code.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result, proc.stderr


def main():
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, lines, result, err = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            check(rc == 0, f"{tag}: exit code 0 (got {rc}) {err.strip()[-300:]}")
            if result is None:
                check(False, f"{tag}: printed a result")
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result keys are exactly the contract's")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{tag}: correct with 0 failed of {result['attempted']}")
            want = SPEC["per_layer" if trace else "end_to_end"]
            names = {m["name"] for m in want}
            check(set(result["metrics"]) == names,
                  f"{tag}: metrics are exactly BENCHMARK.json's {len(names)}")
            report = "\n".join(lines[:-1])
            for m in want:
                got = result["metrics"].get(m["name"], {})
                printed = any(line.split()[:1] == [m["name"]] and
                              line.split()[2:3] == [m["unit"]]
                              for line in report.splitlines())
                check(got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)) and printed,
                      f"{tag}: {m['name']} printed with unit {m['unit']}")
            check("failed_frac" in report, f"{tag}: failed_frac printed with its base")

    for workload, trace in (("paper-saturated", 0), ("paper-campaign", 0),
                            ("faults-traced", 1)):
        rc, _, result, _ = run(workload, trace, "--corrupt-digest")
        tag = f"{workload} --trace {trace} --corrupt-digest"
        check(result is not None and result["correct"] is False
              and result["failed"] >= 1 and rc != 0,
              f"{tag}: a corrupted digest counts as a failed run")

    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
