#!/usr/bin/env python3
"""Repository benchmark: builds cna_perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-uniform --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark program in perfbench/src/) into
.bench_build/perfbench; later runs only re-check the build.  The binary prints one line per metric with its
unit and sample count; this script forwards those lines and ends with one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are every end_to_end metric of BENCHMARK.json, with --trace 1 every
per_layer metric; every workload produces all of them, and a run that misses
one prints no result.  Lines for figures that only some workloads produce are
printed but left out of the result.  "failed" counts nonzero cna_* returns plus failed correctness
checks, so failed / attempted is the run's error rate.  A traced run also
writes its spans to .bench_build/traces/<workload>.spans.

Exit status: 0 when the run is correct; 1 when a correctness check failed
(the result is still printed, with "correct": false); 2 when the benchmark
could not be built or run (nothing is printed on stdout then).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("kv-uniform", "kv-skewed-rw", "hot-lock", "numa-sim")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cna_perfbench")
RUN_TIMEOUT_S = 170  # a run (after the build) must end within 180 s


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("%s: %s" % (" ".join(cmd), err))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], timeout=120)
    run_step(["cmake", "--build", BUILD_DIR, "-j", jobs], timeout=760)


def load_units():
    """Unit of every declared metric, by mode: {0: end_to_end, 1: per_layer}."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    except (OSError, ValueError, KeyError, TypeError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: damage the final state so the "
                             "correctness check must fail")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    units = load_units()
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".spans")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("cna_perfbench: %s" % err)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        fail("cna_perfbench exited with %d" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("cna_perfbench printed no result line")

    produced = raw["metrics"]
    declared = units[args.trace]
    missing = [n for n in declared if n not in produced]
    if missing:
        fail("metrics missing: " + ", ".join(missing))
    metrics = {n: produced[n] for n in declared}
    wrong = [n for n, v in metrics.items() if v["unit"] != declared[n]]
    if wrong:
        fail("unit differs from BENCHMARK.json: " + ", ".join(wrong))

    for line in lines[:-1]:
        print(line)
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
