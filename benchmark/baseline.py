#!/usr/bin/env python3
"""Measures the benchmark's baseline and its run-to-run spread.

Run from the repository root:

    python3 benchmark/baseline.py [--runs 10] [--out benchmark/BASELINE.md]

For every workload in BENCHMARK.json it runs the benchmark command untraced
`--runs` times, with seeds 1..runs, then once traced (seed 31). It reports,
for every end-to-end metric, the median and the interquartile range as a
share of the median (quartiles as `statistics.quantiles(values, n=4)` gives
them) against a third of the metric's bound, and the relative difference
between the medians of the odd-seed and even-seed halves against the bound.
Every run must pass its output checks. With --out it writes the report as
Markdown; it always prints it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    done = subprocess.run(args, capture_output=True, text=True, env=env, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{done.stderr}")
    return result["metrics"]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown CPU"


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    options = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = [
        "# Benchmark baseline",
        "",
        f"Host: {cpu_model()}, {os.cpu_count()} logical CPUs.",
        f"`{' '.join(command)}`, {seconds} s per run, {options.runs} untraced runs "
        f"per workload (seeds 1..{options.runs}) and one traced run (seed 31).",
        "Spread is the interquartile range over the median; the halves compare "
        "the odd-seed and even-seed medians.",
        "",
    ]
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(command, workload, seed, seconds, 0) for seed in range(1, options.runs + 1)]
        traced = run(command, workload, 31, seconds, 1)
        report += [
            f"## {workload}",
            "",
            "| metric | median | unit | spread | bound / 3 | halves differ | bound |",
            "|---|---|---|---|---|---|---|",
        ]
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            median, share = spread(values)
            odd = statistics.median(values[0::2])
            even = statistics.median(values[1::2])
            halves = abs(odd - even) / min(odd, even)
            if name != "setup_s":
                worst = max(worst, share / (bound / 3))
            report.append(
                f"| `{name}` | {median:.6g} | {runs[0][name]['unit']} | {share:.4f} "
                f"| {bound / 3:.4f} | {halves:.4f} | {bound} |"
            )
        report += ["", "Traced run (seed 31):", "", "| layer metric | value | unit |", "|---|---|---|"]
        report += [
            f"| `{name}` | {m['value']:.6g} | {m['unit']} |" for name, m in traced.items()
        ]
        report.append("")
    report.append(
        f"Largest spread as a share of a third of its bound (setup_s excepted): {worst:.3f}"
    )
    text = "\n".join(report) + "\n"
    print(text)
    if options.out:
        with open(options.out, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
