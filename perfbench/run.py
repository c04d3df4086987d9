#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and compiles the
engine sources (src/) together with assess_perfbench into
.bench_build/perfbench; later runs only re-check the build. Build output goes
to stderr, so the last line of stdout is always the benchmark's result
object. The exit code is assess_perfbench's: non-zero on a wrong answer or a
broken layer-load prediction. A failed build or a missing src/ also exits
non-zero.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("explore", "dashboard", "live_ingest")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no engine sources under {ROOT / 'src'}; "
                 "run from a full checkout")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "assess_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "assess_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")
    sys.stdout.flush()
    result = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
