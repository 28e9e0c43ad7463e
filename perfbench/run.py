#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each workload runs in its own process. The last line of standard output
is the JSON result of that process; with `--workload all` every workload
runs in turn and a summary table ends the output. Build output goes to
standard error; a failed build or run exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve_miss", "serve_hits", "sweep_grid", "million_trial"]
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(root, target_dir):
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir, "release", "dg-perfbench")


def run_one(binary, target_dir, workload, seed, seconds, trace):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work-dir", os.path.join(target_dir, "perfbench-work"),
    ]
    if trace:
        cmd += ["--trace-file",
                os.path.join(target_dir, f"perfbench-trace-{workload}-seed{seed}.json")]
    # One malloc arena, so freed memory is reused across the daemon's
    # threads and peak_rss_mb does not depend on which thread freed last.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: {workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = os.getcwd()
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if shutil.which("cargo") is None:
        sys.exit("perfbench: cargo is not on PATH")
    binary = build(root, target_dir)

    if args.workload != "all":
        names = [args.workload]
    elif args.trace:
        names = WORKLOADS[:1]  # one traced pass covers every workload
    else:
        names = WORKLOADS
    results = {}
    for name in names:
        lines, result = run_one(binary, target_dir, name, args.seed, args.seconds, args.trace)
        results[name] = result
        if args.workload != "all":
            print("\n".join(lines))
            return
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print("\n".join(lines[:-1]))
    if args.trace == 0:
        metrics = list(results[names[0]]["metrics"])
        print(f"{'workload':<14}" + "".join(f"{m:>14}" for m in metrics) + f"{'attempted':>11}{'failed':>8}")
        for name, r in results.items():
            row = "".join(f"{r['metrics'][m]['value']:>14.4f}" for m in metrics)
            print(f"{name:<14}{row}{r['attempted']:>11}{r['failed']:>8}")
        units = "".join(f"{results[names[0]]['metrics'][m]['unit']:>14}" for m in metrics)
        print(f"{'(unit)':<14}{units}")
    print(json.dumps(results))
    if not all(r["correct"] and r["failed"] == 0 for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
