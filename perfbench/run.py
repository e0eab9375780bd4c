#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --determinism

Run from the repository root.  Builds the perfbench program (the library
from src/ plus perfbench/src/) with CMake into .bench_build/, then runs one
workload and passes its report through; the last line of stdout is the JSON
result.  The result's metric names are checked against BENCHMARK.json.

--determinism runs the workload twice, traced, on the same seed, prints the
first run's report, and fails if any work counter (queries, conflicts,
propagations, decisions, areas, evaluations, restored stages) differs
between the two processes.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def no_aslr_prefix():
    """setarch -R runs the program with address-space randomisation off, so
    every run gets the same memory layout: on a 4-core VM the same sbox-flow
    seed read 2.57-3.06 s per pass without it and 2.74-3.81 s with it.  Hosts
    that forbid it (setarch missing, or personality() denied) run as is."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def run_benchmark(workload, seed, seconds, trace):
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = no_aslr_prefix() + [
        str(BINARY), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--workdir", str(WORK)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("the benchmark's last line is not JSON")
    return lines, result


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def counters(lines):
    for line in lines:
        if line.startswith("counters "):
            return json.loads(line[len("counters "):])
    fail("no counters line in the benchmark's report")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()

    build()
    if args.determinism:
        first, _ = run_benchmark(args.workload, args.seed, args.seconds, True)
        print("\n".join(first[:-1]))
        second, _ = run_benchmark(args.workload, args.seed, args.seconds, True)
        a, b = counters(first), counters(second)
        drifted = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        for key in sorted(set(a) | set(b)):
            mark = "DRIFT" if key in drifted else "same "
            print(f"{mark} {key}: {a.get(key)} / {b.get(key)}")
        if drifted:
            fail("work counters drifted between two runs of one seed")
        print(f"determinism: {len(a)} counters repeat exactly")
        return

    lines, result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    names = expected_metrics(args.trace)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        sys.stderr.write("\n".join(lines) + "\n")
        fail("the benchmark's metrics do not match BENCHMARK.json")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
