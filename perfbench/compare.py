#!/usr/bin/env python3
"""Runs the benchmark several times and compares result sets.

    # N runs per workload (seeds 1..N), medians and quartiles, saved to a file
    python3 perfbench/compare.py run --runs 10 --out base.json [--workloads a,b]
    # metric-by-metric diff of two saved sets against BENCHMARK.json's bounds
    python3 perfbench/compare.py diff base.json new.json

Run from the repository root. `run` calls perfbench/run.py with the
run_seconds of BENCHMARK.json and stops at the first run that fails or
reports correct=false. `diff` reports, per workload and end-to-end metric,
each side's median and the change in the metric's "worse" direction. A
change worse than the metric's bound is a regression; where either side's
own spread (quartile distance over median) exceeds the bound the metric is
unresolved, unless every run of one side beats every run of the other.
`diff` fails when a run of either set is incorrect, when an end-to-end
metric is missing from either set, or when the share of failed operations
differs. Per-layer figures come from `run.py --trace 1`, not from here.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def cmd_run(args):
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    out = {"runs": {}}
    for w in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, proc.returncode), file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            result["seed"] = seed
            runs.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                w, seed, result["correct"], result["attempted"], result["failed"]),
                file=sys.stderr)
            if not result["correct"]:
                print("%s seed %d: output checks failed" % (w, seed), file=sys.stderr)
                return 1
        out["runs"][w] = runs
        print_set(w, runs)
    Path(args.out).write_text(json.dumps(out, indent=1))
    return 0


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def print_set(workload, runs):
    print("%s: %d runs, all correct: %s, failed shares: %s" % (
        workload, len(runs), all(r["correct"] for r in runs),
        sorted({r["failed"] / r["attempted"] for r in runs})))
    for name in runs[0]["metrics"]:
        v = metric_values(runs, name)
        q1, med, q3 = summary(v)
        unit = runs[0]["metrics"][name]["unit"]
        print("  %-40s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.3f  %s" % (
            name, med, q1, q3, (q3 - q1) / med if med else 0.0, unit))


def cmd_diff(args):
    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = json.loads(Path(args.base).read_text())["runs"]
    new = json.loads(Path(args.new).read_text())["runs"]
    worst = 0
    for w in base:
        if w not in new:
            print("%s: missing from %s" % (w, args.new))
            worst = max(worst, 1)
            continue
        for side, runs in ((args.base, base[w]), (args.new, new[w])):
            bad = [r.get("seed") for r in runs if not r["correct"]]
            if bad:
                print("%s: incorrect runs in %s (seeds %s)" % (w, side, bad))
                worst = max(worst, 1)
        share_b = sorted({r["failed"] / r["attempted"] for r in base[w]})
        share_n = sorted({r["failed"] / r["attempted"] for r in new[w]})
        print("%s: failed share %s -> %s%s" % (
            w, share_b, share_n, "" if share_b == share_n else "  CHANGED"))
        if share_b != share_n:
            worst = max(worst, 1)
        for name, m in metrics.items():
            vb, vn = metric_values(base[w], name), metric_values(new[w], name)
            if len(vb) != len(base[w]) or len(vn) != len(new[w]):
                print("  %-16s missing from some runs of %s" % (
                    name, args.base if len(vb) != len(base[w]) else args.new))
                worst = max(worst, 1)
                continue
            _, mb, _ = summary(vb)
            _, mn, _ = summary(vn)
            sb = (summary(vb)[2] - summary(vb)[0]) / mb if mb else 0.0
            sn = (summary(vn)[2] - summary(vn)[0]) / mn if mn else 0.0
            lower = m["better"] == "lower"
            worse = ((mn - mb) if lower else (mb - mn)) / mb if mb else 0.0
            all_better = (max(vn) < min(vb)) if lower else (min(vn) > max(vb))
            all_worse = (min(vn) > max(vb)) if lower else (max(vn) < min(vb))
            if max(sb, sn) > m["bound"] and not (all_better or all_worse):
                verdict = "unresolved (spread above bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
                worst = max(worst, 2)
            elif worse < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "within bound"
            print("  %-16s %12.6g -> %-12.6g %+7.2f%% worse (bound %.0f%%, spreads %.3f/%.3f)  %s" % (
                name, mb, mn, 100 * worse, 100 * m["bound"], sb, sn, verdict))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--workloads", default="")
    r.add_argument("--out", required=True)
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
