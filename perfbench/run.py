#!/usr/bin/env python3
"""Builds the repository and the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build artifacts go to $CARGO_TARGET_DIR (default: .bench_build). Every
compute path runs on one thread (RAYON_NUM_THREADS=1), in this process
tree and in the daemon the serve workload starts. The last line of
standard output is the benchmark's result object.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(env, *args):
    """Runs one cargo build with its output on stderr; exits on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
        sys.exit(done.returncode or 1)


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    env["RAYON_NUM_THREADS"] = "1"
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.stderr.write("run.py: no Cargo.toml at %s: not a checkout of the repository\n" % ROOT)
        sys.exit(1)
    build(env, "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
          "-p", "jellyfish-bench", "--bin", "jellytool")
    build(env, "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"))
    exe = os.path.join(target, "release", "jellyfish-perfbench")
    jellytool = os.path.join(target, "release", "jellytool")
    cmd = [exe, *sys.argv[1:], "--jellytool", jellytool, "--root", ROOT]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
