#!/usr/bin/env python3
"""Build and run the qgnn end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_unique --seed 1 \\
        --seconds 40 --trace 0

The first run configures and builds perfbench/ (and through it the qgnn
libraries from ../src) in Release mode under $CARGO_TARGET_DIR, default
.bench_build; later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(build_dir, target):
    """Configure (once) and build `target`; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "serve", "service.hpp")):
        return fail("qgnn sources not found next to perfbench/; run from a "
                    "full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(build_root, "qbench")
    try:
        if args.selftest:
            exe = build(build_dir, "qbench_tests")
            return subprocess.run([exe]).returncode
        if args.workload is None or args.seed is None or args.seconds is None:
            return fail("--workload, --seed and --seconds are required")
        exe = build(build_dir, "qbench")
    except (subprocess.CalledProcessError, OSError) as e:
        return fail("build failed: %s" % e)

    work_dir = os.path.join(build_root, "qbench-work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if args.trace == "1" and os.path.isdir(work_dir):
        # Keep the trace, drop the scratch label files.
        shutil.rmtree(os.path.join(work_dir, "labels"), ignore_errors=True)
    else:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
