#!/usr/bin/env python3
"""The repo benchmark: builds the perfbench program against the ftmesh library
(Release, from the sources in this checkout), runs one workload and prints
its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics (measured with tracing off);
--trace 1 prints the per-layer metrics of the separate traced run and
writes a Chrome-trace span file. The human-readable report comes first;
the last line of stdout is one JSON object with exactly the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
correctness check passed.

Everything the benchmark builds or writes goes under .bench_build/ at the
root of the checkout. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "perfbench"
WORK_DIR = OUT_DIR / "work"
PROGRAM = BUILD_DIR / "perfbench"
RUN_LIMIT_S = 170  # the measured run; the whole command must end within 180 s
# Keeps the compiler's and the program's temporary files inside the checkout.
ENV = dict(os.environ, TMPDIR=str(OUT_DIR / "tmp"))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """subprocess.run in its own process group, so that a timeout kills the
    command's children (make, the compiler) too, and waits for them."""
    with subprocess.Popen(cmd, start_new_session=True, env=ENV, text=True,
                          **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return proc.returncode, out


def build():
    """Configures and builds (incrementally after the first run); the log
    stays on disk."""
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    log_path = OUT_DIR / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc, _ = run(cmd, 850, stdout=log, stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                fail(f"build exceeded 850 s ({' '.join(cmd[:2])})")
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")


def git_describe():
    # Only a checkout that is itself a git work tree has a revision; never
    # let git search the directories above it.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=20)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def load1():
    return os.getloadavg()[0]


def run_program(args):
    cmd = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", str(WORK_DIR)]
    if args.corrupt_digest:
        cmd.append("--corrupt-digest")
    try:
        rc, out = run(cmd, RUN_LIMIT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_LIMIT_S} s")
    if rc != 0:
        fail(f"perfbench exited with code {rc}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("perfbench printed no result")
    return json.loads(lines[-1])


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the tiny size the smoke test runs")
    ap.add_argument("--corrupt-digest", action="store_true",
                    help="alter one repetition's report digest (smoke test)")
    args = ap.parse_args()

    build()
    nproc = len(os.sched_getaffinity(0))
    load_before = load1()
    started = time.time()
    doc = run_program(args)
    load_after = load1()

    if doc["build"]["type"] != "Release":
        fail(f"refusing a {doc['build']['type']} build of ftmesh")
    want = expected_metrics(args.trace)
    got = doc["metrics"]
    missing = [m["name"] for m in want
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    extra = sorted(set(got) - {m["name"] for m in want})
    if missing or extra:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")

    threads = doc["threads"]
    warnings = []
    if load_before + threads > nproc:
        warnings.append(f"load {load_before:.2f} + {threads} workload threads "
                        f"exceeds {nproc} CPUs: timings are contended")
    manifest = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "build_type": doc["build"]["type"], "compiler": doc["build"]["compiler"],
        "revision": git_describe(), "nproc": nproc,
        "workload_threads": threads,
        "load_before": round(load_before, 2), "load_after": round(load_after, 2),
        "host": platform.node(), "machine": platform.machine(),
        "elapsed_s": round(time.time() - started, 2),
    }
    attempted, failed = doc["attempted"], doc["failed"]
    correct = attempted > 0 and failed == 0

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"{'traced (per-layer)' if args.trace else 'untraced (end-to-end)'}")
    print("manifest " + json.dumps(manifest))
    for w in warnings:
        print(f"warning: {w}")
        print(f"perfbench: warning: {w}", file=sys.stderr)
    width = max(len(m["name"]) for m in want)
    for m in want:
        v = got[m["name"]]
        print(f"  {m['name']:<{width}}  {v['value']:.6g} {v['unit']}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<{width}}  {frac:.6g} ratio  "
          f"({failed} failed of {attempted} runs)")
    print("simulated " + json.dumps(doc["simulated"]))
    print("notes " + json.dumps(doc["notes"]))
    for f in doc["failures"]:
        print(f"FAILED: {f}")

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"manifest": manifest, "warnings": warnings, **doc}, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {m["name"]: got[m["name"]] for m in want}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
