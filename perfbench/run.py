#!/usr/bin/env python3
"""Runs one workload of the memlook end-to-end benchmark.

    python3 perfbench/run.py --workload edit_churn --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a memlook source tree. The first call builds the
benchmark program (perfbench/CMakeLists.txt, an optimized build) under
.bench_build/.
Each workload runs in a fresh process, so its peak RSS is its own.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
untraced and then traced on the same seed, and prints the per-layer
metrics plus the tracing overhead on each end-to-end metric. The last
line of standard output is the JSON result; a line before it records the
environment. The exit code is 0 only when every answer was correct.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "memlook_perfbench")
WORKLOADS = ("read_zipf", "edit_churn", "cold_dense")
END_TO_END = ("setup_s", "peak_rss_mb", "commit_p50_ms", "commit_p95_ms",
              "cold_start_ms")
# Building may take long on the first run; the measured runs together
# must end within three minutes.
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "memlook_perfbench", "-j", str(os.cpu_count() or 2)],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_program(args, trace, deadline):
    """Runs the benchmark program once; returns its parsed result, or None."""
    tag = "%s-%d-%d" % (args.workload, args.seed, trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", os.path.join(ROOT, ".bench_build", "work", tag)]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        log("the %s run overran the %d s budget" % (tag, RUN_BUDGET_S))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("the %s run exited %d" % (tag, proc.returncode))
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        log("build failed: %s" % err)
        return 2

    load_before = os.getloadavg()
    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = run_program(args, 0, deadline)
    if untraced is None:
        return 2
    result = untraced
    if args.trace:
        traced = run_program(args, 1, deadline)
        if traced is None:
            return 2
        metrics = {name: m for name, m in traced["metrics"].items()
                   if name not in END_TO_END}
        # Tracing overhead: the traced run's end-to-end numbers against the
        # untraced run's, on the same seed.
        for name in END_TO_END:
            base = untraced["metrics"][name]["value"]
            with_trace = traced["metrics"][name]["value"]
            metrics["trace.%s_overhead_pct" % name] = {
                "value": 100.0 * (with_trace - base) / base if base else 0.0,
                "unit": "%"}
        result = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "metrics": metrics,
        }
    load_after = os.getloadavg()

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "cpu": cpu_model(),
           "build_type": build_type(),
           "loadavg_before": [round(x, 2) for x in load_before],
           "loadavg_after": [round(x, 2) for x in load_after],
           "failed_frac": result["failed"] / max(result["attempted"], 1)}
    print("perfbench env: " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
