#!/usr/bin/env python3
"""Runs one workload of the PACDS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (release, offline) against the
repository's crates, then runs the workload in a process of its own. The
binary prints human-readable lines and, last, one JSON line with
`correct`, `attempted`, `failed` and `metrics`. The build goes to
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root).

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-lifetime", "churn-reroute", "wire-mixed", "wire-cluster"]
RUN_TIMEOUT_S = 170


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def pin_to_one_cpu():
    """Confines the workload process to one CPU, the highest-numbered it may
    use. Every workload is single-threaded or a closed loop of threads that
    hand off to each other, so one CPU loses nothing; it stops the
    hand-offs from waiting on the wake-up of another virtual CPU, whose
    latency varies with the host's load."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not build(target):
        print("error: benchmark build failed", file=sys.stderr)
        return 2

    exe = os.path.join(target, "release", "pacds-perfbench")
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"error: {args.workload} exited with {done.returncode}", file=sys.stderr)
        return done.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        print("error: the last output line is not a JSON result", file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
