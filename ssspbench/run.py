#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources, then runs one
workload and passes its JSON result line through.

Run from the root of a checkout:

    python3 ssspbench/run.py --workload road-1m --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ssspbench (CMake, Ninja when available); the
root build files are not used. Build output goes to stderr, so the last line
of stdout is the binary's result. `--self-test` runs the checker self-test.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "ssspbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ssspbench")
BINARY = os.path.join(BUILD_DIR, "ssspbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")  # compiler temporaries
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def fail(msg):
    print("ssspbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for path in ("src/adds.hpp", "ssspbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail("run from the root of a checkout: %s is missing" % path)
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def main():
    build()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
