#!/usr/bin/env python3
"""perfbench: the Burch-Dill pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload diagonal --seed 1 --seconds 20 --trace 0

Builds perfbench_driver from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), measures set-up time over several short launches, runs the
workload in its own process and prints, as the last stdout line, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of BENCHMARK.json.
Exits 1 when any verdict, Table 5, determinism or drift check fails, and 2
when the checkout holds no sources to build. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("diagonal", "deep_rob", "pe_only", "refute")
SETUP_LAUNCHES = 9      # setup_s is the median over these plus the run's own
RUN_TIMEOUT_S = 170     # perfbench_driver starts no cell after 140 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    name = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, name)


def build():
    """Configure and build perfbench_driver; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no repository sources next to {HERE}; nothing to build")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    # An existing tree re-configures itself when a CMakeLists.txt changed.
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            sys.exit(2)
    return os.path.join(out, "perfbench_driver")


def fail():
    """Print a failed result line and exit 1."""
    print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
    sys.exit(1)


def launch(driver, args, timeout):
    """Run perfbench_driver once; return (exit code, last JSON line or None)."""
    cmd = [driver] + args + ["--spawn-time", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench_driver exceeded {timeout} s and was killed")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench_driver printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smallest", action="store_true",
                    help="run only the cheapest cell of the workload")
    ap.add_argument("--flip-expected", action="store_true",
                    help="flip one expected verdict (the gate must then fail)")
    opts = ap.parse_args()

    driver = build()
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]

    setups = []
    for _ in range(0 if opts.trace else SETUP_LAUNCHES):
        code, res = launch(driver, base + ["--setup-only"], 30)
        if code != 0 or res is None:
            fail()
        setups.append(res["setup_s"])

    args = base + ["--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(
            trace_dir, f"{opts.workload}-seed{opts.seed}.json")]
    if opts.smallest:
        args.append("--smallest")
    if opts.flip_expected:
        args.append("--flip-expected")
    code, res = launch(driver, args, RUN_TIMEOUT_S)
    if res is None:
        fail()
    metrics = res["metrics"]
    if not opts.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    correct = bool(res["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
