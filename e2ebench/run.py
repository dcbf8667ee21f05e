#!/usr/bin/env python3
"""Builds and runs the sedspecd production-path benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload bulk_replay --seed 1 --seconds 8 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 8 --trace 1
    python3 e2ebench/run.py --smoke

It builds the `sedspec` binary (whose `serve` subcommand is the daemon
under test) from the repository's own workspace, builds the benchmark
crate next to this file, and runs the benchmark with the arguments
given. Build output goes to stderr; the benchmark's last stdout line is
its JSON result. Builds land in `$CARGO_TARGET_DIR` (default `target`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_rev():
    """The git revision, or `unknown` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(args):
    return subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline"] + args,
        cwd=ROOT, stdout=sys.stderr,
    ).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "sedspecd")
    ):
        print("run.py: not in a SEDSpec checkout (no Cargo.toml / crates/sedspecd)", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    bench_target = os.path.join(target, "e2ebench")
    if not build(["-p", "sedspec-bench", "--bin", "sedspec", "--target-dir", target]):
        print("run.py: building sedspec failed", file=sys.stderr)
        return 1
    manifest = os.path.join(HERE, "Cargo.toml")
    if not build(["--manifest-path", manifest, "--target-dir", bench_target]):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    cmd = [
        os.path.join(bench_target, "release", "sedspec-e2ebench"),
        "--sedspec", os.path.join(target, "release", "sedspec"),
        "--source-rev", source_rev(),
    ] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
