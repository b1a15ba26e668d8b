#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workload sweep-full --seeds 1-10 [--seconds 25]

Spread is (Q3 - Q1) / median over the runs, the quartiles as
`statistics.quantiles(values, n=4)` gives them. A metric is steady when
its spread stays below a third of its bound (setup_s is only compared
by median). Raw results go to stdout, one JSON line per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    group = spec["per_layer" if args.trace else "end_to_end"]
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout[-3000:], done.stderr[-3000:], file=sys.stderr)
            sys.exit(f"seed {seed}: exit {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        runs.append(result)
    print(f"{args.workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}",
          file=sys.stderr)
    for m in group:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        bound = m.get("bound")
        spread = stats.quartile_spread(values) if len(values) >= 2 else 0.0
        verdict = ""
        if bound is not None:
            verdict = "steady" if m["name"] == "setup_s" or spread < bound / 3 else "NOISY"
        print(f"  {m['name']:<28} median {statistics.median(values):14.6g} {m['unit']:<8} "
              f"spread {spread:7.4f}" + (f"  bound {bound}  {verdict}" if bound is not None else ""),
              file=sys.stderr)


if __name__ == "__main__":
    main()
