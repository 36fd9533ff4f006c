#!/usr/bin/env python3
"""A/B comparison of the repo benchmark between two checkouts.

Runs `python3 perfbench/run.py` alternately in a parent checkout and a
change checkout, N pairs per workload, and prints for every metric the
median (with quartiles) of each side, the change/parent ratio, how many
pairs each side won (a tie counts for neither), the verdict against the
metric's bound in BENCHMARK.json, and whether the simulated results
(report or campaign CSV digests) are equal on every pair.

    python3 tools/perfbench_ab.py --parent ../parent --change . \\
        --workloads paper-saturated,faults-traced --pairs 5 --seconds 10

    python3 tools/perfbench_ab.py --parent ../parent --change . \\
        --workloads mesh64-tiled --pairs 10 --same-seed \\
        --claim cycles_per_s:mesh64-tiled

A verdict is "unresolved" when the parent's own spread (interquartile
range over median) is wider than the metric's bound: the runs cannot tell
a change of that size from noise.  --claim METRIC:WORKLOAD (repeatable)
applies the acceptance rule for a claimed gain: the change must win at
least 9 of every 10 pairs, and the gap between the medians must exceed the
parent's interquartile range.

Pair i runs seed --seed + i on both sides (every pair runs --seed with
--same-seed, so a workload whose input depends on the seed compares like
with like); even pairs start with the parent, odd pairs with the change,
so a drift in host speed lands on both sides alike.  Both checkouts must
contain perfbench/; each builds into its own .bench_build/.  --json writes
every sample and summary to a file.

Exit status: 0 = every run correct, every digest equal, no metric worse
than its bound and every claim held; 1 = otherwise; 2 = bad invocation.
"""

import argparse
import json
import os
import subprocess
import sys


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def quartiles(values):
    """(p25, median, p75), each the median of its half for p25/p75 (the
    middle value belongs to neither half when the count is odd)."""
    s = sorted(values)
    if not s:
        raise ValueError("quartiles of no values")
    half = len(s) // 2
    lower = s[:half] if half else s
    upper = s[len(s) - half:] if half else s
    return median(lower), median(s), median(upper)


def ratio(change, parent):
    """change / parent, or None when the parent value is zero."""
    if parent == 0:
        return None
    return change / parent


def verdict(parent, change, better, bound):
    """'worse' when the change is worse than the parent by more than
    `bound` (a fraction of the parent value), 'better' when it is better by
    more than that, else 'same'."""
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    if parent == 0:
        return "same" if change == 0 else (
            "worse" if (change > 0) == (better == "lower") else "better")
    gain = (parent - change) / abs(parent)
    if better == "higher":
        gain = -gain
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def better_side(parent, change, better):
    """'change', 'parent' or None (a tie) for one pair of values."""
    if parent == change:
        return None
    change_higher = change > parent
    return "change" if change_higher == (better == "higher") else "parent"


def pair_wins(parent_values, change_values, better):
    """(change wins, parent wins) over pairs aligned by index; ties count
    for neither side."""
    if len(parent_values) != len(change_values):
        raise ValueError("pair lists differ in length")
    sides = [better_side(p, c, better)
             for p, c in zip(parent_values, change_values)]
    return sides.count("change"), sides.count("parent")


def spread(values):
    """Interquartile range over median, or None when the median is zero."""
    p25, med, p75 = quartiles(values)
    if med == 0:
        return None
    return (p75 - p25) / abs(med)


def claim_check(parent_values, change_values, better):
    """The acceptance rule for a claimed gain: the change wins at least
    9/10 of the pairs, and its median beats the parent's by more than the
    parent's interquartile range."""
    wins, losses = pair_wins(parent_values, change_values, better)
    pairs = len(parent_values)
    p25, pm, p75 = quartiles(parent_values)
    cm = median(change_values)
    gap = cm - pm if better == "higher" else pm - cm
    iqr = p75 - p25
    won = wins * 10 >= 9 * pairs
    return {"wins": wins, "losses": losses, "pairs": pairs,
            "won_pairs": won, "gap": gap, "parent_iqr": iqr,
            "gap_exceeds_iqr": gap > iqr, "holds": won and gap > iqr}


def parse_claim(text):
    """'METRIC:WORKLOAD' -> (metric, workload)."""
    metric, sep, workload = text.partition(":")
    if not sep or not metric or not workload:
        raise ValueError(f"--claim wants METRIC:WORKLOAD, got {text!r}")
    return metric, workload


def digests(simulated):
    """The digest entries of a run's `simulated` block."""
    return {k: v for k, v in simulated.items() if k.endswith("digest")}


def parse_run(stdout):
    """(result document, simulated block) from run.py's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    doc = json.loads(lines[-1])
    simulated = {}
    for line in lines:
        if line.startswith("simulated "):
            simulated = json.loads(line[len("simulated "):])
    return doc, simulated


def run_side(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    try:
        doc, simulated = parse_run(proc.stdout)
    except ValueError as e:
        raise RuntimeError(f"{checkout}: {workload} seed {seed}: {e}; "
                           f"stderr: {proc.stderr[-400:]}") from e
    return {"correct": bool(doc.get("correct")) and proc.returncode == 0,
            "failed": doc.get("failed"), "attempted": doc.get("attempted"),
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
            "digests": digests(simulated)}


def paired_values(name, parent_runs, change_runs):
    """The metric's values from the pairs in which both sides report it."""
    pv, cv = [], []
    for p, c in zip(parent_runs, change_runs):
        if name in p["metrics"] and name in c["metrics"]:
            pv.append(p["metrics"][name])
            cv.append(c["metrics"][name])
    return pv, cv


def summarize(spec_metrics, parent_runs, change_runs):
    """Per-metric rows: quartiles of both sides, ratio of medians, pair
    wins and the verdict ('unresolved' when the parent's spread exceeds
    the bound)."""
    rows = []
    for m in spec_metrics:
        name = m["name"]
        pv, cv = paired_values(name, parent_runs, change_runs)
        if not pv:
            continue
        pq, cq = quartiles(pv), quartiles(cv)
        row = {"name": name, "unit": m.get("unit", ""),
               "parent": pq, "change": cq, "ratio": ratio(cq[1], pq[1])}
        if "better" in m:
            row["wins"] = pair_wins(pv, cv, m["better"])
        if "bound" in m:
            noise = spread(pv)
            if noise is not None and noise > m["bound"]:
                row["verdict"] = "unresolved"
            else:
                row["verdict"] = verdict(pq[1], cq[1], m["better"], m["bound"])
        rows.append(row)
    return rows


def format_row(row):
    p25, pm, p75 = row["parent"]
    c25, cm, c75 = row["change"]
    r = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
    out = (f"  {row['name']:<24} parent {pm:.6g} [{p25:.6g}, {p75:.6g}]  "
           f"change {cm:.6g} [{c25:.6g}, {c75:.6g}] {row['unit']}  "
           f"ratio {r}")
    if "wins" in row:
        out += f"  wins {row['wins'][0]}-{row['wins'][1]}"
    if "verdict" in row:
        out += f"  {row['verdict']}"
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workloads", default="",
                    help="comma-separated names (default: all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--same-seed", action="store_true",
                    help="run every pair with --seed instead of --seed + i")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC:WORKLOAD",
                    help="check the acceptance rule for a claimed gain")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write samples and summaries here")
    args = ap.parse_args()
    if args.pairs < 1:
        print("perfbench_ab: --pairs must be >= 1", file=sys.stderr)
        return 2
    for d in (args.parent, args.change):
        if not os.path.isfile(os.path.join(d, "perfbench", "run.py")):
            print(f"perfbench_ab: no perfbench/run.py under {d}", file=sys.stderr)
            return 2
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    try:
        claims = [parse_claim(c) for c in args.claim]
    except ValueError as e:
        print(f"perfbench_ab: {e}", file=sys.stderr)
        return 2
    for metric, workload in claims:
        if workload not in workloads or not any(
                m["name"] == metric for m in metrics):
            print(f"perfbench_ab: claim {metric}:{workload} names no "
                  f"measured metric and workload", file=sys.stderr)
            return 2

    ok = True
    report = {}
    for w in workloads:
        runs = {"parent": [], "change": []}
        same_results = True
        for i in range(args.pairs):
            seed = args.seed if args.same_seed else args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = run_side(getattr(args, side), w, seed,
                                     args.seconds, args.trace)
                runs[side].append(got[side])
            if got["parent"]["digests"] != got["change"]["digests"]:
                same_results = False
            ok &= got["parent"]["correct"] and got["change"]["correct"]
            print(f"{w} pair {i + 1}/{args.pairs} seed {seed} done",
                  file=sys.stderr)
        rows = summarize(metrics, runs["parent"], runs["change"])
        print(f"# {w}: {args.pairs} pair(s), "
              f"{'traced' if args.trace else 'untraced'}, "
              f"digests {'equal' if same_results else 'DIFFER'}, "
              f"failed parent {sum(r['failed'] or 0 for r in runs['parent'])} "
              f"change {sum(r['failed'] or 0 for r in runs['change'])}")
        for row in rows:
            print(format_row(row))
            if row.get("verdict") == "worse":
                ok = False
        ok &= same_results
        report[w] = {"runs": runs, "summary": rows,
                     "digests_equal": same_results, "claims": {}}
        for metric, workload in claims:
            if workload != w:
                continue
            better = next(m["better"] for m in metrics if m["name"] == metric)
            pv, cv = paired_values(metric, runs["parent"], runs["change"])
            if not pv:
                print(f"  claim {metric}: no paired values")
                ok = False
                continue
            c = claim_check(pv, cv, better)
            print(f"  claim {metric}: change won {c['wins']}/{c['pairs']} "
                  f"pairs ({'>=' if c['won_pairs'] else '<'} 9/10), median "
                  f"gap {c['gap']:.6g} {'>' if c['gap_exceeds_iqr'] else '<='}"
                  f" parent IQR {c['parent_iqr']:.6g}: "
                  f"{'HOLDS' if c['holds'] else 'FAILS'}")
            ok &= c["holds"]
            report[w]["claims"][metric] = c
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
