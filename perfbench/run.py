#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench runner (perfbench/CMakeLists.txt, Release) from the
library sources under src/ into .bench_build/, then runs the workload in its
own single-threaded process.  The runner's standard output is passed through;
its last line is the JSON result.  Build output goes to standard error.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("epidemic-leaping", "clean-naive", "recovery-naive", "soak-batched")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = [cmake, "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    if subprocess.run([cmake, "--build", BUILD_DIR, "-j", "4"],
                      stdout=sys.stderr, cwd=ROOT).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ directory next to perfbench/; nothing to build",
              file=sys.stderr)
        return 2
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    try:
        run = subprocess.run(
            [exe, f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--run-dir={RUN_DIR}", f"--git-sha={source_id()}"],
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
