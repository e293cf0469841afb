#!/usr/bin/env python3
"""Runs servebench back to back over seeds, on every workload declared in
BENCHMARK.json and for its run_seconds, and prints a Markdown table per
workload: each end-to-end metric's median, quartiles, min, max and spread
(interquartile distance over the median, the figure each bound in
BENCHMARK.json is compared against).

    python3 servebench/steadiness.py --runs 10 [--first-seed 11]

Run from the repository root. Seeds are first_seed .. first_seed+runs-1.
Exits non-zero when a run fails or a spread is over its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = subprocess.run(
                [sys.executable, "servebench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            host = next((json.loads(l)["host"] for l in lines
                         if l.startswith('{"host"')), {})
            if res.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{res.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            runs.append({"host": host, "metrics": result["metrics"]})
            print(f"{workload} seed {seed}: steal "
                  f"{host['steal_frac']:.3f}", file=sys.stderr)
        if len(runs) < 2:
            continue
        host = runs[0]["host"]
        steal = [r["host"]["steal_frac"] for r in runs]
        print(f"\n## `{workload}`\n\n{len(runs)} runs, seeds "
              f"{args.first_seed}–{args.first_seed + args.runs - 1}, "
              f"{seconds} s each. Steal over the window: min {min(steal):.3f}"
              f", median {statistics.median(steal):.3f}, max {max(steal):.3f}"
              f". Host: {host['cpu_model']}, nproc {host['nproc']}, "
              f"{host['build_type']} build, git {host['git_sha'][:12]}, "
              f"source digest {host['source_sha256']}.\n")
        print("| metric | unit | median | q1 | q3 | min | max | spread "
              "| bound |\n|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3, s = spread(values)
            over = s > m["bound"]
            ok = ok and not over
            print(f"| `{m['name']}` | {m['unit']} | {q2:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {min(values):.4g} | {max(values):.4g} | "
                  f"{s:.3f} | {m['bound']}{' OVER' if over else ''} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
