#!/usr/bin/env python3
"""cachegen-bench: build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-stream --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/ with CMake in
Release mode, runs the cachegen_bench binary with a private scratch
directory under .bench_build/, removes that directory afterwards, and
relays the binary's output. The last stdout line is the result JSON object.
Build logs go to stderr. Exits non-zero, without printing a result, when
the build or the run fails.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cachegen_bench"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "cachegen_bench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["hot-stream", "hot-decode", "prefix-writeback"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is None:
        sys.stderr.write(proc.stdout)
        print(f"benchmark exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
