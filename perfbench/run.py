#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the load generator and the geminid/geminicoordd daemons from this
checkout into .bench_build/perfbench (Release), then runs the workload. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only for a completed run
with correct outputs. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("wire_read_mostly", "wire_write_heavy", "lookaside_disk_loss")
# Backstop for the load generator, which tears itself down after 150 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the load generator; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))

    def attempt():
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "--target",
             "perfbench_loadgen", "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)

    try:
        attempt()
    except subprocess.CalledProcessError:
        # A build tree configured for another checkout path cannot be reused.
        log("build failed; retrying from a clean build directory")
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        attempt()
    return BUILD_DIR / "perfbench_loadgen"


def run(cmd, budget_s, work_dir):
    """Runs the load generator in its own process group and tears the group
    down on timeout or on SIGINT/SIGTERM."""
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop_group(sig):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        stop_group(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            stop_group(signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        return proc.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {budget_s:.0f} s; stopping it")
        stop_group(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            stop_group(signal.SIGKILL)
            proc.wait()
        return 124
    finally:
        # Whatever the load generator left (it removes its work dir itself
        # on every path it survives), including daemons of its group.
        stop_group(signal.SIGKILL)
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not ((ROOT / "src" / "CMakeLists.txt").is_file()
            and (ROOT / "tools" / "geminid.cc").is_file()):
        log(f"no gemini sources next to {HERE.name}/ (need src/ and tools/)")
        return 2

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 3

    work_dir = ROOT / ".bench_build" / "work" / str(os.getpid())
    trace_dir = ROOT / ".bench_build" / "traces"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--trace-dir", str(trace_dir)]
    return run(cmd, RUN_TIMEOUT_S, work_dir)


if __name__ == "__main__":
    sys.exit(main())
