#!/usr/bin/env python3
"""Runs the repo benchmark in alternating parent/change pairs and judges it.

    python3 scripts/perf_pairs.py --parent DIR --change DIR \\
        --workload solve_matrix|serve_hot|cold_regex --seed N --pairs K
    python3 scripts/perf_pairs.py --self-test

DIR is a checkout of the repository. Each run is `python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0` inside that checkout, which
builds and keeps its own benchmark binary in the checkout's .bench_build:
the runs do not inherit CARGO_TARGET_DIR, which when absolute would put
both sides into one build tree. S is the run_seconds of the change's
BENCHMARK.json, the same on both sides. Pair i runs the parent first when
i is even and the change first when i is odd.

The script stops with exit status 1 as soon as a run is not `correct`,
fails an operation or mismatches its pinned checksum. Otherwise it prints,
for every end-to-end metric of the change's BENCHMARK.json, each side's
median and quartiles, the change's win count, every run, and one verdict:

  gain        at least 10 pairs ran, the change wins at least 9/10 of
              them (ties count for neither side) and the medians differ,
              in the change's favour, by more than the parent's
              interquartile range;
  too few pairs
              the figures would make a gain, but fewer than 10 pairs ran;
  unresolved  the parent's interquartile range exceeds the bound (as a
              share of its median) and not every change run beats every
              parent run: the parent's own spread hides a change of the
              bound's size, in either direction;
  regression  the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  no change   otherwise.

The rules are checked in that order. The last line of output is the
workload's trajectory row, one JSON object: the workload, seed and run
length, the parent's commit (null when the parent checkout is not the top
of a git work tree, e.g. a `git archive` copy), the pair count, and per
end-to-end metric each side's median and quartiles, the win count and the
verdict. BENCH_trajectory.json keeps these rows, one per workload per
performance change. `--self-test` checks the quartile, verdict and row
arithmetic on canned runs and runs no benchmark.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 1200
MIN_GAIN_PAIRS = 10  # fewer pairs cannot show a gain


class PairError(Exception):
    pass


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list (q in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values):
    """(first quartile, median, third quartile)."""
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, direction, bound):
    """Verdict and figures for one metric; parent[i] and change[i] pair."""
    if len(parent) != len(change) or not parent:
        raise ValueError("judge needs equally many runs per side, at least one")
    p_q1, p_med, p_q3 = summary(parent)
    _, c_med, _ = summary(change)
    p_iqr = p_q3 - p_q1
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    pairs = len(parent)
    worse_by = (c_med - p_med if direction == "lower" else p_med - c_med)
    scale = abs(p_med)
    if 10 * wins >= 9 * pairs and better(c_med, p_med, direction) and \
            abs(c_med - p_med) > p_iqr:
        verdict = "gain" if pairs >= MIN_GAIN_PAIRS else "too few pairs"
    elif p_iqr > bound * scale and \
            not all(better(c, p, direction) for c in change for p in parent):
        verdict = "unresolved"
    elif worse_by > bound * scale:
        verdict = "regression"
    else:
        verdict = "no change"
    return {"verdict": verdict, "wins": wins, "pairs": pairs,
            "parent_iqr": p_iqr}


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env(environ):
    """The environment of a perfbench run: `environ` without
    CARGO_TARGET_DIR, so that each checkout builds in its own tree."""
    return {key: value for key, value in environ.items()
            if key != "CARGO_TARGET_DIR"}


def checkout_commit(checkout):
    """The commit checked out at `checkout`, or None when `checkout` is not
    the top of a git work tree."""
    try:
        done = subprocess.run(["git", "-C", checkout, "rev-parse",
                               "--show-toplevel", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(checkout):
        return None
    return lines[1]


def trajectory_row(workload, seed, seconds, parent_commit, metrics, runs):
    """The trajectory row of one workload's pairs."""
    row = {"workload": workload, "seed": seed, "seconds": seconds,
           "parent": parent_commit, "pairs": len(runs), "metrics": {}}
    for spec in metrics:
        name = spec["name"]
        sides = {side: [run[side][name] for run in runs]
                 for side in ("parent", "change")}
        figures = judge(sides["parent"], sides["change"], spec["better"],
                        spec["bound"])
        entry = {side: dict(zip(("q1", "median", "q3"), summary(values)))
                 for side, values in sides.items()}
        entry["wins"] = figures["wins"]
        entry["verdict"] = figures["verdict"]
        row["metrics"][name] = entry
    return row


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; returns its metric values by name."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              env=child_env(os.environ))
    except subprocess.TimeoutExpired:
        raise PairError("%s: perfbench timed out" % checkout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise PairError("%s: perfbench exited with %d" % (checkout,
                                                          done.returncode))
    result = json.loads(lines[-1])
    if any("checksum MISMATCH" in line for line in lines):
        raise PairError("%s: checksum mismatch" % checkout)
    if not result["correct"]:
        raise PairError("%s: run not correct" % checkout)
    if int(result["failed"]) != 0:
        raise PairError("%s: %d of %d operations failed" % (
            checkout, int(result["failed"]), int(result["attempted"])))
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def report(metrics, runs):
    """Prints each metric's figures, runs and verdict."""
    for spec in metrics:
        name = spec["name"]
        parent = [run["parent"][name] for run in runs]
        change = [run["change"][name] for run in runs]
        figures = judge(parent, change, spec["better"], spec["bound"])
        p = summary(parent)
        c = summary(change)
        print("%s (%s, %s is better, bound %.2f): %s" % (
            name, spec["unit"], spec["better"], spec["bound"],
            figures["verdict"]))
        print("  parent median %.6g  quartiles %.6g .. %.6g" % (p[1], p[0],
                                                                 p[2]))
        print("  change median %.6g  quartiles %.6g .. %.6g" % (c[1], c[0],
                                                                 c[2]))
        print("  change wins %d/%d pairs" % (figures["wins"],
                                             figures["pairs"]))
        print("  parent runs: " + " ".join("%.6g" % v for v in parent))
        print("  change runs: " + " ".join("%.6g" % v for v in change))


def self_test():
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (label, got, want))

    expect("quartiles of 1..5", summary([5, 1, 3, 2, 4]), (2.0, 3.0, 4.0))
    expect("quartiles of 1..4", summary([1, 2, 3, 4]), (1.75, 2.5, 3.25))
    expect("median of one run", summary([7.0]), (7.0, 7.0, 7.0))

    tight = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    cases = [
        # A clear gain: every pair won, median gap far above the IQR.
        ("gain", tight, [40, 41, 39, 40, 42, 38, 40, 41, 39, 40], "lower",
         "gain"),
        # Higher is better works the same way round.
        ("gain, higher", tight, [250] * 10, "higher", "gain"),
        # 8 of 10 pairs won: not a gain, and within the bound.
        ("8/10 wins", tight, [90] * 8 + [150, 150], "lower", "no change"),
        # Ties count for neither side.
        ("ties", tight, [100] * 10, "lower", "no change"),
        # Worse than the parent by more than 25% of its median.
        ("regression", tight, [130] * 10, "lower", "regression"),
        ("regression, higher", tight, [70] * 10, "higher", "regression"),
        # Worse, but inside the bound.
        ("small loss", tight, [110] * 10, "lower", "no change"),
        # The parent spreads wider than the bound: unresolved unless every
        # change run beats every parent run.
        ("unresolved", [60, 140, 70, 130, 80, 120, 60, 140, 70, 130],
         [95] * 10, "lower", "unresolved"),
        ("noisy but separated", [60, 140, 70, 130, 80, 120, 60, 140, 70, 130],
         [50] * 10, "lower", "no change"),
        # A noisy parent hides a loss past the bound as well.
        ("noisy loss", [60, 140, 70, 130, 80, 120, 60, 140, 70, 130],
         [135] * 10, "lower", "unresolved"),
        # Every pair won but the gap is inside the parent's IQR.
        ("gap inside IQR", [90, 110, 90, 110, 90, 110, 90, 110, 90, 110],
         [89, 109, 89, 109, 89, 109, 89, 109, 89, 109], "lower", "no change"),
        # Every pair won with a wide gap, but 5 pairs cannot show a gain.
        ("5/5 wins", tight[:5], [40] * 5, "lower", "too few pairs"),
        ("1/1 win", [100], [40], "lower", "too few pairs"),
        # A regression needs no minimum number of pairs.
        ("5-pair regression", tight[:5], [130] * 5, "lower", "regression"),
    ]
    for label, parent, change, direction, want in cases:
        got = judge(parent, change, direction, 0.25)["verdict"]
        expect(label, got, want)
    # 99 beats seven of tight's runs, ties 99 twice and loses to 98.
    expect("win count", judge(tight, [99] * 10, "lower", 0.25)["wins"], 7)

    # Each side builds in its own checkout: an absolute CARGO_TARGET_DIR
    # would name one build tree for both, and every pair would time one
    # binary twice.
    inherited = {"CARGO_TARGET_DIR": "/shared/target", "PATH": "/bin"}
    expect("child env", child_env(inherited), {"PATH": "/bin"})

    # The trajectory row carries both sides' quartiles and the verdict of
    # every metric, and survives a JSON round trip.
    metrics = [{"name": "read_p50_us", "better": "lower", "bound": 0.25},
               {"name": "read_per_s", "better": "higher", "bound": 0.25}]
    runs = [{"parent": {"read_p50_us": p, "read_per_s": 1000.0},
             "change": {"read_p50_us": c, "read_per_s": 1000.0}}
            for p, c in zip(tight, [40] * 10)]
    row = json.loads(json.dumps(trajectory_row("solve_matrix", 7, 30, "abc",
                                               metrics, runs)))
    expect("row header", [row[k] for k in ("workload", "seed", "seconds",
                                           "parent", "pairs")],
           ["solve_matrix", 7, 30, "abc", 10])
    expect("row parent p50", row["metrics"]["read_p50_us"]["parent"],
           {"q1": 99.25, "median": 100.0, "q3": 100.75})
    expect("row change p50", row["metrics"]["read_p50_us"]["change"],
           {"q1": 40.0, "median": 40.0, "q3": 40.0})
    expect("row p50 judged", [row["metrics"]["read_p50_us"][k]
                              for k in ("wins", "verdict")], [10, "gain"])
    expect("row ties", [row["metrics"]["read_per_s"][k]
                        for k in ("wins", "verdict")], [0, "no change"])
    # A directory outside any work tree has no commit.
    with tempfile.TemporaryDirectory() as bare:
        expect("no commit", checkout_commit(bare), None)

    for failure in failures:
        print("self-test FAILED: " + failure)
    if failures:
        return 2
    print("self-test: ok (%d verdict cases, child env, trajectory row)" %
          len(cases))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    missing = [flag for flag in ("parent", "change", "workload", "seed",
                                 "pairs") if getattr(args, flag) is None]
    if missing:
        parser.error("missing --" + ", --".join(missing))
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = load_spec(args.change)
    seconds = spec["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = []
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            pair = {}
            for side in order:
                pair[side] = run_once(sides[side], args.workload, args.seed,
                                      seconds)
                print("pair %d %s: %s" % (i, side, json.dumps(pair[side],
                                                              sort_keys=True)),
                      flush=True)
            runs.append(pair)
    except (PairError, OSError, KeyError, ValueError) as error:
        print("perf_pairs: %s" % error)
        return 1
    print("%s, seed %d, %d pairs of %gs runs" % (args.workload, args.seed,
                                                 args.pairs, seconds))
    report(spec["end_to_end"], runs)
    print(json.dumps(trajectory_row(args.workload, args.seed, seconds,
                                    checkout_commit(sides["parent"]),
                                    spec["end_to_end"], runs),
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
