#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload sweep-full --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. It builds `fc_sweep` (the root
workspace) and `perfbench-tracer` (perfbench/tracer) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, checks
the program's outputs, and prints one JSON line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` measures the end-to-end metrics of BENCHMARK.json through
the shipped entry points (`fc_sweep`, `fc_sweep serve`) with tracing
off. `--trace 1` runs the same workload, then its traced decomposition
(perfbench-tracer), and reports the per-layer metrics instead. Inputs
derive from `--seed` only; scratch files live under `.bench_runs/` and
are removed at exit. perfbench/README.md explains the workloads, the
metric definitions and the layer -> end-to-end map.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
# Time for one run, build excluded: a run must end within 180 s, and
# this leaves room to report and clean up.
RUN_BUDGET_S = 165.0
BUILD_BUDGET_S = 700.0


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not stats.valid_name(m["name"]) or not stats.valid_unit(m["unit"]):
                die(f"invalid metric {m!r} in BENCHMARK.json")
    return spec


def build(target_dir):
    """Builds both binaries; returns their directory."""
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "sweep")
    ):
        die("no Cargo workspace with crates/sweep at the checkout root; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    deadline = time.monotonic() + BUILD_BUDGET_S
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "fc-sweep", "--bin", "fc_sweep"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "tracer", "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build failed: {' '.join(cmd)}: {e}", 1)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            die(f"build failed: {' '.join(cmd)}", 1)
    return os.path.join(target_dir, "release")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    # A SIGTERM unwinds like an error, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bin_dir = build(os.path.join(ROOT, target) if not os.path.isabs(target) else target)

    work = os.path.join(ROOT, ".bench_runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = workloads.Run(
        bin_dir=bin_dir,
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        deadline=time.monotonic() + RUN_BUDGET_S,
    )
    try:
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            metrics = workload.traced(run)
            wanted = spec["per_layer"]
        else:
            metrics = workload.end_to_end(run)
            wanted = spec["end_to_end"]
    except workloads.RunError as e:
        die(str(e), 1)
    finally:
        run.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    names = {m["name"] for m in wanted}
    missing = names - set(metrics)
    extra = set(metrics) - names
    if missing or extra:
        die(f"metric set differs from BENCHMARK.json: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}", 1)
    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in (m["name"] for m in wanted)
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
