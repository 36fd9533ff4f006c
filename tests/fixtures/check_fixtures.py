#!/usr/bin/env python3
"""Pins the simulator's absolute output: runs a handful of small `ftmesh`
configurations and compares what they write, byte for byte, against the
files committed next to this script.

The golden-determinism suite only checks that the kernel agrees with
itself (across scan modes, tilings and thread counts), so a change that
shifted every mode equally would pass it.  These fixtures catch that: any
change to a report, a campaign CSV or a trace shows up here.

Usage:
    check_fixtures.py --ftmesh PATH/TO/ftmesh            # compare
    check_fixtures.py --ftmesh PATH/TO/ftmesh --regen    # rewrite fixtures

Regenerate only when an output change is intended, and say why in the
commit that carries the new files.

Exit status: 0 = every fixture matches, 1 = a mismatch or a failed run,
2 = bad invocation.
"""

import argparse
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# Saturated sources on an 8x8 mesh with three random node faults: the
# configuration where switching and routing contention are heaviest.
_SATURATED = ["--width", "8", "--height", "8", "--faults", "3", "--rate", "-1",
              "--length", "16", "--cycles", "1500", "--warmup", "300",
              "--seed", "11", "--kernel-stats", "--json"]

# The same configuration with two-flit worms: many short worms in flight
# put several switch requests on most routers every cycle.
_SHORT_WORMS = list(_SATURATED)
_SHORT_WORMS[_SHORT_WORMS.index("--length") + 1] = "2"

# (fixture file, ftmesh arguments, output source).  "stdout" captures the
# process's standard output; any other value names the file the run writes
# into its temporary working directory.
CASES = [
    ("saturated_duato.json",
     ["run", "--algorithm", "Duato"] + _SATURATED, "stdout"),
    ("saturated_phop.json",
     ["run", "--algorithm", "PHop"] + _SATURATED, "stdout"),
    # Boura-FT also runs the tile-parallel kernel (4 tiles, 2 threads).
    ("saturated_boura_ft_tiled.json",
     ["run", "--algorithm", "Boura-FT"] + _SATURATED +
     ["--tiles", "4", "--step-threads", "2"], "stdout"),
    # Every other algorithm on the same saturated configuration.
    ("saturated_nhop.json",
     ["run", "--algorithm", "NHop"] + _SATURATED, "stdout"),
    ("saturated_pbc.json",
     ["run", "--algorithm", "Pbc"] + _SATURATED, "stdout"),
    ("saturated_nbc.json",
     ["run", "--algorithm", "Nbc"] + _SATURATED, "stdout"),
    ("saturated_duato_pbc.json",
     ["run", "--algorithm", "Duato-Pbc"] + _SATURATED, "stdout"),
    ("saturated_minimal_adaptive.json",
     ["run", "--algorithm", "Minimal-Adaptive"] + _SATURATED, "stdout"),
    ("saturated_boura_adaptive.json",
     ["run", "--algorithm", "Boura-Adaptive"] + _SATURATED, "stdout"),
    ("saturated_duato_short_worms_tiled.json",
     ["run", "--algorithm", "Duato"] + _SHORT_WORMS +
     ["--tiles", "4", "--step-threads", "2"], "stdout"),
    # Buffer depths away from the default 2: at depth 1 every flit sent
    # drains an output VC's credits to zero, and depth 5 exercises ring
    # wrap-around on deeper buffers.
    ("saturated_duato_depth1.json",
     ["run", "--algorithm", "Duato"] + _SATURATED + ["--buffer-depth", "1"],
     "stdout"),
    ("saturated_fully_adaptive_depth5.json",
     ["run", "--algorithm", "Fully-Adaptive"] + _SATURATED +
     ["--buffer-depth", "5"], "stdout"),
    # A channel dies under traffic and repairs, a node fails, and a random
    # transient link process runs: purge, retransmit and abort paths.
    ("transient_link_faults.json",
     ["run", "--algorithm", "Duato-Nbc", "--width", "8", "--height", "8",
      "--rate", "0.01", "--length", "16", "--cycles", "2000",
      "--warmup", "400", "--seed", "3", "--fault-schedule",
      "fail-link@600:3,3,E; fail@800:5,5; repair-link@1200:3,3,E; "
      "random-link:count=2,rate=0.01,start=700,repair_after=400",
      "--drain", "--kernel-stats", "--json"], "stdout"),
    ("campaign_4cells.csv",
     ["campaign", "--width", "6", "--height", "6", "--length", "8",
      "--cycles", "1200", "--warmup", "300", "--seed", "9",
      "--algorithms", "Nbc,Duato-Nbc", "--rates", "0.004,0.008",
      "--fault-counts", "3", "--patterns", "2", "--threads", "2",
      "--out", "out.csv"], "out.csv"),
    ("trace_small.jsonl",
     ["run", "--algorithm", "Duato-Nbc", "--width", "6", "--height", "6",
      "--rate", "0.03", "--length", "8", "--cycles", "300", "--warmup", "50",
      "--faults", "2", "--seed", "7", "--fault-schedule",
      "fail@120:2,2; repair@220:2,2", "--trace", "out.jsonl"], "out.jsonl"),
]


def produce(ftmesh, args, source):
    """Runs one case in a fresh directory and returns its output bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([ftmesh] + args, cwd=tmp, capture_output=True,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')}")
        if source == "stdout":
            return proc.stdout
        with open(os.path.join(tmp, source), "rb") as f:
            return f.read()


def first_difference(a, b):
    """(line number, expected line, actual line) of the first mismatch."""
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else b"<end of file>"
        y = lb[i] if i < len(lb) else b"<end of file>"
        if x != y:
            return i + 1, x[:200], y[:200]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ftmesh", required=True, help="path to the ftmesh CLI")
    ap.add_argument("--regen", action="store_true",
                    help="rewrite the fixture files from this binary")
    args = ap.parse_args()
    # Each case runs inside its own temporary directory.
    ftmesh = os.path.abspath(args.ftmesh)
    if not os.access(ftmesh, os.X_OK):
        print(f"check_fixtures: not executable: {ftmesh}", file=sys.stderr)
        return 2

    failed = False
    for name, case_args, source in CASES:
        path = os.path.join(HERE, name)
        try:
            got = produce(ftmesh, case_args, source)
        except (RuntimeError, OSError) as e:
            print(f"{name}: run failed: {e}")
            failed = True
            continue
        if args.regen:
            with open(path, "wb") as f:
                f.write(got)
            print(f"{name}: wrote {len(got)} bytes")
            continue
        try:
            with open(path, "rb") as f:
                want = f.read()
        except OSError as e:
            print(f"{name}: cannot read fixture: {e}")
            failed = True
            continue
        if got == want:
            print(f"{name}: ok ({len(got)} bytes)")
            continue
        failed = True
        diff = first_difference(want, got)
        print(f"{name}: MISMATCH ({len(want)} bytes expected, "
              f"{len(got)} produced)")
        if diff:
            line, x, y = diff
            print(f"  first difference at line {line}:\n"
                  f"    expected: {x.decode(errors='replace')}\n"
                  f"    produced: {y.decode(errors='replace')}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
