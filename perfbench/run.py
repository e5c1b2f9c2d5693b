#!/usr/bin/env python3
"""Build and run the end-to-end HLS benchmark from the repository root.

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first form builds the benchmark program with dune and runs one workload;
its last line of standard output is the JSON result.  The second builds
and runs the benchmark's self-test at tiny size.  See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

# What a source checkout of the repository must hold for the build.
REQUIRED = ["dune-project", "lib", "bin", os.path.join("perfbench", "dune")]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not a source checkout of the repository (missing %s)" % ", ".join(missing))
    try:
        # No shared build cache: the build reads and writes only inside
        # the checkout.
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", target],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join("_build", "default", target)


def run(command):
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run timed out")


def main(args):
    if args == ["--self-test"]:
        exe = build(os.path.join("perfbench", "test", "selftest.exe"))
        return run([exe, "BENCHMARK.json"])
    exe = build(os.path.join("perfbench", "main.exe"))
    return run([exe] + args)


if __name__ == "__main__":
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
