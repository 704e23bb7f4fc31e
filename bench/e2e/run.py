#!/usr/bin/env python3
"""Build crac_bench from this checkout, then run one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
    python3 bench/e2e/run.py --quick      # smoke gear: every workload, ~1.5 s each

The binary is built on first use into build-bench/crac_bench (CMake,
RelWithDebInfo, straight from src/); results and traces go to
build-bench/results. The last line of standard output is the run's JSON
result. Build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "e2e")
BUILD = os.path.join(ROOT, "build-bench", "crac_bench")
BINARY = os.path.join(BUILD, "crac_bench")
WORKLOADS = ["interpose", "ckpt-file", "migrate", "registry"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "crac", "context.hpp")):
        print("run.py: library sources not found under %s/src" % ROOT, file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr) == 0


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not args.quick and args.workload is None:
        ap.error("--workload is required (or --quick)")
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.environ.setdefault("CRAC_BENCH_COMMIT", commit())
    os.chdir(ROOT)

    def argv(workload, seconds):
        return [BINARY, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", args.trace]

    if not args.quick:
        sys.stdout.flush()
        os.execv(BINARY, argv(args.workload, args.seconds))
    status = 0
    for w in WORKLOADS:
        status |= subprocess.call(argv(w, 1.5) + ["--quick"])
    return status


if __name__ == "__main__":
    sys.exit(main())
