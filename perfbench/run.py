#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload solve_matrix|serve_hot|cold_regex \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library from src/ plus the rpqbench driver) in
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
On solve_matrix and cold_regex the end-to-end times are scaled to a
reference machine speed (SpeedReference in common.h), which cancels the
speed drift of a shared machine; the raw figures are printed above the
result line. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_matrix", "serve_hot", "cold_regex")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(step))
    binary = os.path.join(out, "rpqbench")
    if not os.path.exists(binary):
        raise BenchError("build produced no rpqbench binary")
    return binary


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (notes, parsed result line)."""
    workdir = os.path.join(build_dir(), "work", "%s-%d" % (workload,
                                                           os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("rpqbench timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("rpqbench exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError("rpqbench printed no result line")
    return lines[:-1], result


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def pinned_checksum(workload, seed, tiny=False):
    """The checksum fixed for (workload, seed), or None when not pinned."""
    table = load_json("checksums.json")
    key = ("tiny/" if tiny else "") + workload
    return table.get(key, {}).get(str(seed))


def finish(workload, seed, trace, notes, result, tiny=False):
    """Checks a raw result and returns (report lines, final JSON object)."""
    lines = list(notes)
    correct = bool(result["correct"])
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    checksum = int(result["checksum"])
    pinned = pinned_checksum(workload, seed, tiny)
    if pinned is None:
        lines.append("checksum %d (no value pinned for seed %s)" % (checksum,
                                                                   seed))
    elif pinned == checksum:
        lines.append("checksum %d matches the pinned value" % checksum)
    else:
        lines.append("checksum MISMATCH: %d, pinned %d; every read counts "
                     "as wrong" % (checksum, pinned))
        correct = False
        failed = attempted
    metrics = {}
    raw = result["metrics"]
    for spec in expected_metrics(trace):
        name, unit = spec["name"], spec["unit"]
        got = raw.get(name)
        if got is None:
            raise BenchError("metric %s missing" % name)
        value = got["value"]
        if got["unit"] != unit:
            raise BenchError("metric %s has unit %s, not %s" %
                             (name, got["unit"], unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError("metric %s is not a finite number" % name)
        metrics[name] = {"value": value, "unit": unit}
    if trace:
        layer_map = load_json("layer_map.json")
        for name, entry in metrics.items():
            moves = layer_map.get(name, {}).get("moves", "")
            lines.append("%-42s %14.6g %-10s -> %s" % (
                name, entry["value"], entry["unit"], moves))
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return lines, final


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
        notes, result = run_binary(binary, args.workload, args.seed,
                                   args.seconds, args.trace == 1)
        lines, final = finish(args.workload, args.seed, args.trace == 1,
                              notes, result)
    except (BenchError, OSError, KeyError, ValueError) as error:
        sys.stderr.write("perfbench: %s\n" % error)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
