#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 wfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wfbench/run.py --self-test

Run from anywhere inside a checkout. The build goes to .bench_build/ and
the durable nodes' files to .bench_work/ at the root of the checkout;
a traced run leaves its spans in .bench_work/trace_<workload>.tsv. The
last line on stdout is the run's JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "wfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(command)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", PACKAGE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "wfbench",
               "wfbench_selftest", "-j", str(os.cpu_count() or 1)],
              BUILD_TIMEOUT_S)


def run_child(command):
    """Runs the benchmark in its own process group; returns (code, stdout)."""
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    return child.returncode, out


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS and
            isinstance(result["metrics"], dict) and
            isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or
                               args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    build()
    if args.self_test:
        code, out = run_child([os.path.join(BUILD_DIR, "wfbench_selftest")])
        sys.stdout.write(out)
        sys.exit(code)

    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, "run-%d" % os.getpid())
    command = [os.path.join(BUILD_DIR, "wfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    if args.trace:
        command += ["--trace-file",
                    os.path.join(WORK_DIR, "trace_%s.tsv" % args.workload)]
    try:
        code, out = run_child(command)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if code == 0 and (not lines or not check_result(lines[-1])):
        sys.stdout.write(out)
        fail("the benchmark printed no result line")
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
