#!/usr/bin/env python3
"""Benchmark entry point: builds the runners and the harness from source,
then runs one workload and forwards its single JSON result line.

    python3 perfbench/run.py --workload dse_cells --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); run-time files go under `.perfbench/`. Any build or run
failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys

RUNNER_BINS = ["run", "nvmx-serve", "nvmx-coordinator", "nvmx-worker"]


def build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: stdout carries only the result line.
    return subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    bins = ["-p", "nvmx_bench"] + [f for b in RUNNER_BINS for f in ("--bin", b)]
    if not build(bins, target):
        print("perfbench: building the runners failed", file=sys.stderr)
        return 1
    if not build(["--manifest-path", os.path.join(here, "Cargo.toml")], target):
        print("perfbench: building the harness failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "perfbench")] + sys.argv[1:]
    harness += ["--bin-dir", release, "--out", os.path.join(root, ".perfbench")]
    return subprocess.run(harness).returncode


if __name__ == "__main__":
    sys.exit(main())
