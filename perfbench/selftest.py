#!/usr/bin/env python3
"""Self-test of the repo benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against its format, then runs each workload untraced
and traced at the tiny size and checks that every metric BENCHMARK.json
names is emitted with its unit and a finite value, that every answer
verified, and that the resilience checksum matches the pinned one.
"""

import json
import os
import re
import sys

import run

SEED = 1
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(failures):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        failures.append("BENCHMARK.json keys: %s" % sorted(spec))
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py's")
    names = set()
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            failures.append("bad metric name or unit: %s" % m)
        if m["name"] in names:
            failures.append("duplicate metric %s" % m["name"])
        names.add(m["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            failures.append("bad end-to-end entry: %s" % m)
    if {"name": "setup_s", "unit": "s", "better": "lower"}.items() - \
            next((m for m in spec["end_to_end"] if m["name"] == "setup_s"),
                 {}).items():
        failures.append("setup_s must be an end-to-end metric in s, lower")
    layer_map = run.load_json("layer_map.json")
    if sorted(m["name"] for m in spec["per_layer"]) != sorted(layer_map):
        failures.append("layer_map.json and per_layer name different metrics")


def main():
    failures = []
    check_spec(failures)
    binary = run.build()
    for workload in run.WORKLOADS:
        for trace in (False, True):
            label = "%s --trace %d" % (workload, trace)
            try:
                notes, result = run.run_binary(binary, workload, SEED, 1,
                                               trace, tiny=True)
                _, final = run.finish(workload, SEED, trace, notes, result,
                                      tiny=True)
            except run.BenchError as error:
                failures.append("%s: %s" % (label, error))
                continue
            pinned = run.pinned_checksum(workload, SEED, tiny=True)
            if pinned != result["checksum"]:
                failures.append("%s: checksum %s, pinned %s" %
                                (label, result["checksum"], pinned))
            if not final["correct"] or final["failed"] != 0:
                failures.append("%s: correct=%s failed=%d" %
                                (label, final["correct"], final["failed"]))
            print("%-26s %2d metrics, %d operations" %
                  (label, len(final["metrics"]), final["attempted"]))
    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
