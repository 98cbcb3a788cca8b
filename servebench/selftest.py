#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Run from the repository root:

    python3 servebench/selftest.py

Checks that BENCHMARK.json is well formed (metric names, units, bounds),
then runs every workload at its tiny size, untraced and traced, and checks
that each run exits 0 (so every configuration guard passed), that its last
line parses, that it reports exactly the declared metrics as finite
numbers, and that it is correct: no failed request, no wrong or stale read.
Exits non-zero on the first failure.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    for name in names:
        if not NAME.match(name):
            fail(f"bad name {name!r}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    for m in metrics:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"bad unit or direction on {m['name']}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound of {m['name']} out of (0, 0.25]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"]):
        fail("setup_s missing")
    if len(spec["per_layer"]) > 128 or not 2 <= len(spec["workloads"]) <= 8:
        fail("metric or workload count out of range")
    return spec


def run(workload, trace, spec):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{label} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: unexpected keys {sorted(result)}")
    declared = spec["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        fail(f"{label}: reported metrics differ from BENCHMARK.json")
    for m in declared:
        value = result["metrics"][m["name"]]
        if value["unit"] != m["unit"] or not math.isfinite(value["value"]):
            fail(f"{label}: bad value for {m['name']}: {value}")
    checks = json.loads(lines[-2].split(" ", 1)[1])
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1 and checks["wrong_reads"] == 0
            and checks["stale_reads"] == 0):
        fail(f"{label}: incorrect run {checks}")
    print(f"ok   {label}: {result['attempted']} requests")


def main():
    spec = check_spec()
    print("ok   BENCHMARK.json")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            run(workload, trace, spec)
    print("PASS")


if __name__ == "__main__":
    main()
