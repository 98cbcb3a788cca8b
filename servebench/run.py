#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the repository root:

    python3 servebench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

Builds the libraries and the driver from source into .bench_build/ (Release),
runs one closed-loop serving run, checks its outputs, and prints as the last
line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. Names and units come from BENCHMARK.json at
the repository root. --tiny runs a small stack, for the self-test.
The exit code is non-zero, and no result is printed, when the build fails, a
configuration guard fails, or the driver does not report every metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "servebench_driver")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds; both skip what is already up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "servebench_driver",
              "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(1)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    build()
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S}s")
        sys.exit(1)
    if run.returncode != 0:
        log(f"driver exited with {run.returncode}")
        sys.exit(run.returncode)
    report = json.loads(run.stdout.strip().splitlines()[-1])

    measured = report["metrics"]
    missing = [name for name, _ in declared if name not in measured]
    if missing:
        log("driver did not report: " + ", ".join(missing))
        sys.exit(1)
    checks = {key: report[key] for key in
              ("seed", "failed", "wrong_reads", "stale_reads",
               "vlat_p50_ms", "dispatcher_p50_ms", "vlat_consistent")}
    print("checks " + json.dumps(checks))
    # A failed, wrong or stale request makes the run a failed one, never a
    # slow one; so does a virtual latency that disagrees with the
    # dispatcher's own histogram.
    correct = (report["failed"] == 0 and report["wrong_reads"] == 0
               and report["stale_reads"] == 0 and report["vlat_consistent"])
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared},
    }))


if __name__ == "__main__":
    main()
