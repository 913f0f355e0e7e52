#!/usr/bin/env python3
"""Pins each workload's resilience checksum for a range of seeds.

    python3 perfbench/pin_checksums.py [--first 0] [--count 128]

Rewrites perfbench/checksums.json (full-size seeds [first, first+count),
and seeds 1-3 at the self-test's tiny size). Run it only at a commit whose
answers are trusted: every later run of a pinned seed must reproduce them.
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys

import run


def checksum(binary, workload, seed, tiny):
    workdir = os.path.join(run.build_dir(), "work",
                           "pin-%s-%d-%d" % (workload, seed, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--workdir", workdir, "--checksum-only"]
    if tiny:
        cmd.append("--tiny")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             check=True, timeout=run.RUN_TIMEOUT_S).stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    value = json.loads(out.strip().splitlines()[-1])["checksum"]
    if value < 0:
        raise RuntimeError("no reference for %s seed %d" % (workload, seed))
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=128)
    args = parser.parse_args()
    binary = run.build()
    jobs = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        for workload in run.WORKLOADS:
            for seed in range(args.first, args.first + args.count):
                jobs[(workload, seed)] = pool.submit(checksum, binary,
                                                     workload, seed, False)
            for seed in (1, 2, 3):
                jobs[("tiny/" + workload, seed)] = pool.submit(
                    checksum, binary, workload, seed, True)
    table = {}
    for (key, seed), job in sorted(jobs.items()):
        table.setdefault(key, {})[str(seed)] = job.result()
    with open(os.path.join(run.HERE, "checksums.json"), "w") as f:
        json.dump(table, f, indent=1)  # jobs were sorted by (key, seed)
        f.write("\n")
    print("pinned %d checksums" % len(jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
