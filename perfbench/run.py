#!/usr/bin/env python3
"""One-command store benchmark.

Builds the benchmark driver (perfbench/CMakeLists.txt, Release only) from the
repository sources and runs one workload:

    python3 perfbench/run.py --workload write_churn --seed 1 --seconds 45 --trace 0

Run it from the repository root. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}. With --trace 1
the per-layer metrics are printed instead of the end-to-end ones, and the
spans are written to <build dir>/traces/. Every run's reproducibility record
(seed, nproc, build type, GF kernel tier, steal and load average before and
after) goes to standard error and to <build dir>/records/.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build; it
must lie inside the working directory.

    python3 perfbench/run.py --self-check

runs every workload briefly with a deliberately corrupted shadow copy and
succeeds only if each of those runs fails its byte verification.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("write_churn", "degraded_read")
# A run takes --seconds plus set-up, warm-up, audit and (traced) the ladder.
RUN_MARGIN_S = 120
BUILD_TIMEOUT_S = 850
VERIFY_FAILED_EXIT = 3


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir(root):
    path = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if os.path.commonpath([root, path]) != root:
        fail(f"build directory {path} is outside {root}")
    return path


def build(root, bench_dir, out_dir):
    if not os.path.isfile(os.path.join(root, "src", "core", "protocol", "sharded_store.hpp")):
        fail(f"no traperc sources under {root}/src; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "storebench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 1)
    return os.path.join(out_dir, "storebench")


def run_driver(binary, argv, seconds, capture):
    """Runs the driver to completion (killed and reaped on timeout)."""
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.PIPE if capture else None, text=True)
    try:
        out, err = proc.communicate(timeout=seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark run timed out", 1)
    return proc.returncode, out, err


def self_check(binary):
    ok = True
    for workload in WORKLOADS:
        code, _, err = run_driver(binary, ["--workload", workload, "--seed", "1", "--seconds", "1",
                                           "--trace", "0", "--corrupt-shadow"], 1, capture=True)
        caught = code == VERIFY_FAILED_EXIT and "byte verification FAILED" in err
        print(f"self-check {workload}: corrupted shadow {'caught' if caught else 'NOT caught'} (exit {code})")
        ok = ok and caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check that a corrupted shadow fails every workload")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    out_dir = build_dir(root)
    binary = build(root, os.path.dirname(os.path.abspath(__file__)), out_dir)
    if args.self_check:
        return self_check(binary)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("traces", "records"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--record-out", os.path.join(out_dir, "records", tag + ".json")]
    if args.trace:
        argv += ["--trace-out", os.path.join(out_dir, "traces", tag + ".json")]
    sys.stdout.flush()
    code, _, _ = run_driver(binary, argv, args.seconds, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
