#!/usr/bin/env python3
"""Builds hos-serve and the benchmark binary from source, then runs one pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload point-lookup --seed 1 --seconds 30 --trace 0

Build output goes to standard error; the benchmark's last line on standard
output is the JSON result. Artifacts go to $CARGO_TARGET_DIR, or to
.bench_build in the checkout when it is unset. Any build failure exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(target_dir, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    cargo_build(target_dir, "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "hos-serve")
    cargo_build(target_dir, "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"))
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "hos-perfbench"),
        "--serve-bin",
        os.path.join(release, "hos-serve"),
        *sys.argv[1:],
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
