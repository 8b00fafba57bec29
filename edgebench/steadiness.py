#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

    python3 edgebench/steadiness.py                      # all workloads, seeds 1 and 2, 5 runs each
    python3 edgebench/steadiness.py --workload wide_tree --seeds 1,2 --runs 3
    python3 edgebench/steadiness.py --distinct 10        # two sets of ten runs on seeds 1..10

Run from the root of the checkout. Each group of runs (one seed repeated,
or with --distinct one run on each of N seeds) gets the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
of every end-to-end metric. A metric is flagged when its spread exceeds
its bound (setup_s is exempt, as its spread is not bounded), or when a
later group's median is worse than the first group's by more than the
bound. The exit code is 1 when anything is flagged or a run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: correctness check failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, first, later):
    """Share by which `later` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (later - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def report(spec, workload, groups):
    flagged = []
    medians = []
    for label, runs in groups:
        print(f"\n{workload}, {label} ({len(runs)} runs)")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        group_medians = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            group_medians[name] = median
            flag = ""
            if name != "setup_s" and spread > metric["bound"]:
                flag = "  SPREAD > BOUND"
                flagged.append(f"{workload} {label} {name} spread {spread:.3f}")
            elif name != "setup_s" and spread > metric["bound"] / 3:
                flag = "  (> bound/3)"
            print(f"  {name:28s} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {metric['bound']:6.2f}{flag}")
        medians.append((label, group_medians))
    first_label, first = medians[0]
    for label, later in medians[1:]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            drift = worse_by(metric, first[name], later[name])
            if drift > metric["bound"]:
                flagged.append(f"{workload} {name}: {label} median worse than {first_label} by {drift:.3f}")
    return flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="1,2", help="comma-separated seeds, one group each")
    parser.add_argument("--runs", type=int, default=5, help="runs per seed")
    parser.add_argument("--distinct", type=int, default=0,
                        help="instead: two groups of N runs, one per seed 1..N")
    args = parser.parse_args()

    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if args.distinct:
        seeds = list(range(1, args.distinct + 1))
        plan = [(f"set {i} (seeds 1..{args.distinct})", seeds) for i in (1, 2)]
    else:
        plan = [(f"seed {s}", [int(s)] * args.runs) for s in args.seeds.split(",")]

    flagged = []
    for workload in names:
        groups = []
        for label, seeds in plan:
            groups.append((label, [run_once(spec, workload, s) for s in seeds]))
        flagged += report(spec, workload, groups)
    print()
    for line in flagged:
        print("FLAG:", line)
    print("steady" if not flagged else f"{len(flagged)} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
