#!/usr/bin/env python3
"""Fast self-check of the benchmark itself (about a minute after the build).

    python3 edgebench/selfcheck.py

Run from the root of the checkout. For every workload in BENCHMARK.json,
at toy size, it asserts that:
  * the last stdout line is valid JSON with exactly the keys correct,
    attempted, failed and metrics;
  * an untraced run prints every end_to_end metric and a traced run every
    per_layer metric, each with the unit BENCHMARK.json gives, and no
    other metric;
  * a deliberately perturbed window result trips the correctness check
    (exit code not 0, "correct": false).
It also asserts that a directory holding only BENCHMARK.json and the
benchmark fails fast without printing a result. Exit code 1 on any
failed assertion.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY = ["--seconds", "0.5", "--toy"]

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(spec, workload, trace, extra=(), cwd=ROOT):
    cmd = [*spec["command"], "--workload", workload, "--seed", "1",
           "--trace", str(trace), *TOY, *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def check_output(spec, workload, trace):
    code, last = run(spec, workload, trace)
    label = f"{workload} --trace {trace}"
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        expect(False, f"{label}: last line is JSON")
        return
    expect(code == 0, f"{label}: exit code 0")
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: exactly the four result keys")
    expect(result.get("correct") is True and result.get("failed") == 0,
           f"{label}: correct, nothing failed")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           f"{label}: attempted is a whole number >= 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    expect(set(printed) == set(wanted), f"{label}: prints exactly the {len(wanted)} names")
    for name, unit in wanted.items():
        m = printed.get(name, {})
        ok = m.get("unit") == unit and isinstance(m.get("value"), (int, float)) \
            and math.isfinite(m["value"])
        if not ok:
            expect(False, f"{label}: {name} printed as a number in {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_output(spec, workload, trace)
        code, last = run(spec, workload, 0, ["--perturb"])
        try:
            correct = json.loads(last).get("correct")
        except json.JSONDecodeError:
            correct = None
        expect(code != 0 and correct is False,
               f"{workload}: a perturbed window fails the correctness check")

    # Without the program's sources the benchmark must fail, not report.
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, last = run(spec, spec["workloads"][0]["name"], 0, cwd=bare)
    expect(code != 0 and not last.startswith("{"),
           "without the program's sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selfcheck passed" if not failures else f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
