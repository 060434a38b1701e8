#!/usr/bin/env python3
"""Builds the benchmark from source if needed, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test     # build and run the benchmark's tests

The build lives in .bench_build/perfbench at the checkout root. Build output
goes to stderr, so the last line of standard output is the benchmark's JSON
result. The exit code is the benchmark's: 0 only when every check passed.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                     targets)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                # A failed configure must not leave a cache that skips the
                # next attempt's configure step.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                return False
    return True


def main(argv):
    if argv == ["--test"]:
        if not build(["perfbench_tests"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if not build(["perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)

    def value(flag):
        i = args.index(flag) + 1 if flag in args else len(args)
        return args[i] if i < len(args) else ""

    if value("--trace") == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        name = value("--workload") + "-" + value("--seed")
        args += ["--spans", os.path.join(spans, name + ".json")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
