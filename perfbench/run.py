#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The Rust package in this directory is
built in release mode into $CARGO_TARGET_DIR (default `.bench_build`);
build output goes to standard error. The benchmark's standard output is
passed through unchanged: its last line is the JSON result. The exit
code is the benchmark's, or non-zero when the build fails or a run
exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# One workload run must end within 180 s; leave room for the build check.
RUN_LIMIT_S = 170
# A cold build of the cluster crates takes well under this.
BUILD_LIMIT_S = 850


def main() -> int:
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            stdout=sys.stderr,
            timeout=BUILD_LIMIT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("error: the benchmark does not build here", file=sys.stderr)
        return 3
    exe = os.path.join(target, "release", "bluedove-perfbench")
    try:
        proc = subprocess.Popen([exe] + sys.argv[1:])
    except OSError as e:
        print(f"error: cannot start {exe}: {e}", file=sys.stderr)
        return 3
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
