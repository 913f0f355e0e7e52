#!/usr/bin/env python3
"""Validate the engine's metrics export in a bench_engine run.

Checks three things CI's bench-smoke job relies on:

1. The Prometheus exposition (<run>.prom, written by bench_engine next to
   the JSON report) is structurally sound: every sample is preceded by
   HELP/TYPE lines, histogram `le` bucket series are cumulative and
   monotone, the "+Inf" bucket equals `_count`, and `_sum` is present.
2. BENCH_engine.json embeds the same export under a top-level "metrics"
   object (counters / histograms / gauges), and every scenario carries a
   "latency_histogram" whose bucket counts add up to its `count` and
   whose p50 <= p95 <= p99.
3. The observability overhead pair: `obs_on_deep_product` must answer
   identically to `obs_off_deep_product` (same resilience_checksum) and
   its p50 must stay within 5% + a 5us absolute floor for jitter on
   sub-100us solves.

Serve mode (`--serve`) validates a `bench_engine --serve` run instead:
the merged multi-shard Prometheus exposition must carry shard="i" labels
for every shard of the reporting run plus shard="all" roll-ups that
equal the sum of the per-shard series, and BENCH_serve.json must show
equal resilience checksums across shard counts, zero errors, per-shard
p50 <= p99, a shedding shed-storm, and a multi-shard read-throughput
speedup over single-shard.

Persist mode (`--persist`) validates a `bench_engine --persist` run
(no .prom file — the persist bench measures storage, not the metrics
exporter): BENCH_persist.json must carry segment_cold_load and
text_reparse runs at both 4k and 64k facts with EQUAL resilience
checksums per size (the segment-restored database answers identically
to a text re-registration), a journal_replay_100_commits run, and the 64k
cold-load speedup must clear the floor — segments exist to make
restart cheaper than reparsing: a load is the checksums plus one build
(AddFact per fact, then the label index), against a full text parse.

Faults mode (`--faults`) validates a `bench_engine --faults` run (no
.prom file): BENCH_faults.json must carry the paired commit storms
(failpoints disabled vs every site armed at probability 0) with EQUAL
resilience checksums across both storms and both post-reopen restores,
zero recorded fires on the armed side, a passing disabled-path overhead
gate (measured check cost under 1% of the commit p50), and the armed-p0
sanity ratio within its budget.

Usage:
  check_metrics_export.py BENCH_engine.json [BENCH_engine.prom]
  check_metrics_export.py --serve BENCH_serve.json [BENCH_serve.prom]
  check_metrics_export.py --persist BENCH_persist.json
  check_metrics_export.py --faults BENCH_faults.json
Exit status: 0 clean, 1 validation failure, 2 usage error.
"""

import json
import math
import re
import sys

OBS_PAIR = ("obs_off_deep_product", "obs_on_deep_product")
# obs_on p50 <= obs_off p50 * (1 + REL_SLACK) + ABS_SLACK_MICROS.
REL_SLACK = 0.05
ABS_SLACK_MICROS = 5.0
# CI floor for the multi-shard read-throughput speedup. The cache
# residency contrast the serve bench is built on is machine-independent
# and lands well above 3x locally; the floor leaves room for noisy,
# core-starved CI runners without letting a regression to ~1x pass.
SERVE_SPEEDUP_FLOOR = 1.5
# CI floor for the 64k-fact segment cold-load vs text-reparse speedup.
# The contrast is structural (checksums plus one AddFact build and one
# index build, vs a full text parse plus the same builds) and lands at
# 10-20x locally; 5x leaves headroom for slow CI disks without letting a
# load that costs as much as a parse pass.
PERSIST_SPEEDUP_FLOOR = 5.0

SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r"\s+(?P<value>[^ ]+)$"
)


def parse_labels(text):
    if not text:
        return {}
    labels = {}
    # Label values are quoted and may contain escaped quotes/backslashes.
    for match in re.finditer(r'(\w+)="((?:[^"\\]|\\.)*)"', text):
        labels[match.group(1)] = match.group(2)
    return labels


def check_prometheus(text, failures):
    helped, typed = set(), {}
    series = {}  # (name, frozen labels minus le) -> [(le, value), ...]
    scalars = {}  # full sample line key -> value
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = SAMPLE_RE.match(line)
        if not match:
            failures.append(f"prom line {lineno}: unparseable sample: {line!r}")
            continue
        name = match.group("name")
        labels = parse_labels(match.group("labels"))
        try:
            value = float(match.group("value"))
        except ValueError:
            failures.append(f"prom line {lineno}: non-numeric value: {line!r}")
            continue
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
        if base not in typed or base not in helped:
            failures.append(
                f"prom line {lineno}: sample '{name}' lacks HELP/TYPE "
                f"for '{base}'"
            )
        if name.endswith("_bucket") and "le" in labels:
            le = labels.pop("le")
            key = (base, tuple(sorted(labels.items())))
            bound = math.inf if le == "+Inf" else float(le)
            series.setdefault(key, []).append((bound, value))
        else:
            scalars[(name, tuple(sorted(labels.items())))] = value

    if not series:
        failures.append("prom: no histogram bucket series found at all")
    for (base, labels), buckets in series.items():
        where = f"prom histogram {base}{dict(labels)}"
        bounds = [b for b, _ in buckets]
        values = [v for _, v in buckets]
        if bounds != sorted(bounds):
            failures.append(f"{where}: le bounds out of order")
        if values != sorted(values):
            failures.append(f"{where}: cumulative counts not monotone")
        if not buckets or buckets[-1][0] != math.inf:
            failures.append(f"{where}: missing +Inf bucket")
            continue
        count = scalars.get((base + "_count", labels))
        if count is None:
            failures.append(f"{where}: missing _count sample")
        elif count != buckets[-1][1]:
            failures.append(
                f"{where}: +Inf bucket {buckets[-1][1]} != _count {count}"
            )
        if (base + "_sum", labels) not in scalars:
            failures.append(f"{where}: missing _sum sample")
    return scalars


def check_embedded_metrics(doc, failures):
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        failures.append("BENCH json: no top-level 'metrics' object")
        return
    for key in ("counters", "histograms", "gauges"):
        if not isinstance(metrics.get(key), list):
            failures.append(f"BENCH json: metrics.{key} missing or not a list")
    for family in metrics.get("counters", []):
        for sample in family.get("samples", []):
            if sample["value"] < 0:
                failures.append(
                    f"metrics counter {family['name']}: negative sample"
                )
    for family in metrics.get("histograms", []):
        for entry in family.get("series", []):
            bucket_total = sum(b["count"] for b in entry.get("buckets", []))
            if bucket_total != entry["count"]:
                failures.append(
                    f"metrics histogram {family['name']}"
                    f"{{{entry.get('label')}}}: bucket counts {bucket_total}"
                    f" != count {entry['count']}"
                )


def check_scenario_histograms(doc, failures):
    for scenario in doc.get("scenarios", []):
        name = scenario.get("name", "?")
        hist = scenario.get("latency_histogram")
        if not isinstance(hist, dict):
            failures.append(f"scenario '{name}': no latency_histogram")
            continue
        bucket_total = sum(b["count"] for b in hist.get("buckets", []))
        if bucket_total != hist.get("count"):
            failures.append(
                f"scenario '{name}': histogram buckets sum to {bucket_total}"
                f" but count is {hist.get('count')}"
            )
        quantiles = [hist.get(k, 0) for k in
                     ("p50_micros", "p95_micros", "p99_micros")]
        if quantiles != sorted(quantiles):
            failures.append(
                f"scenario '{name}': quantiles not monotone: {quantiles}"
            )
        finite = [b for b in hist.get("buckets", []) if b["le"] != "+Inf"]
        bounds = [b["le"] for b in finite]
        if bounds != sorted(bounds):
            failures.append(f"scenario '{name}': bucket bounds out of order")


def check_obs_pair(doc, failures):
    scenarios = {s["name"]: s for s in doc.get("scenarios", [])}
    off_name, on_name = OBS_PAIR
    off, on = scenarios.get(off_name), scenarios.get(on_name)
    if off is None or on is None:
        failures.append(
            f"missing observability pair: need '{off_name}' and '{on_name}'"
        )
        return
    if off["resilience_checksum"] != on["resilience_checksum"]:
        failures.append(
            "obs pair answers diverged: checksum "
            f"{on['resilience_checksum']} (on) != "
            f"{off['resilience_checksum']} (off)"
        )
    budget = off["solve_p50_micros"] * (1 + REL_SLACK) + ABS_SLACK_MICROS
    if on["solve_p50_micros"] > budget:
        failures.append(
            f"observability overhead too high: obs_on p50 "
            f"{on['solve_p50_micros']:.1f}us exceeds budget {budget:.1f}us "
            f"(obs_off p50 {off['solve_p50_micros']:.1f}us)"
        )


def check_serve_json(doc, failures):
    """Structure and cross-run invariants of BENCH_serve.json."""
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        failures.append("serve json: no 'runs' list")
        return 0
    checksums = {run.get("resilience_checksum") for run in runs}
    if len(checksums) != 1:
        failures.append(
            f"serve json: resilience checksums differ across shard counts: "
            f"{sorted(checksums)}"
        )
    for run in runs:
        shards = run.get("shards", 0)
        where = f"serve run shards={shards}"
        if run.get("errors", 1) != 0:
            failures.append(f"{where}: errors = {run.get('errors')}")
        if not 0.0 <= run.get("shed_rate", -1) <= 1.0:
            failures.append(f"{where}: shed_rate out of [0,1]")
        per_shard = run.get("per_shard", [])
        if len(per_shard) != shards:
            failures.append(
                f"{where}: per_shard has {len(per_shard)} entries"
            )
        for entry in per_shard:
            if entry.get("p50_micros", 0) > entry.get("p99_micros", 0):
                failures.append(
                    f"{where} shard {entry.get('shard')}: p50 > p99"
                )
    speedups = doc.get("speedup", [])
    if not speedups:
        failures.append("serve json: no multi-shard speedup entries")
    for entry in speedups:
        ratio = entry.get("read_throughput_x_single", 0)
        if ratio < SERVE_SPEEDUP_FLOOR:
            failures.append(
                f"serve json: {entry.get('shards')}-shard read throughput "
                f"only {ratio:.2f}x single-shard "
                f"(floor {SERVE_SPEEDUP_FLOOR}x)"
            )
    storm = doc.get("shed_storm", {})
    if storm.get("submitted", 0) <= 0:
        failures.append("serve json: shed_storm ran nothing")
    elif storm.get("shed_deadline_exceeded", 0) <= 0:
        failures.append("serve json: shed_storm shed no expired deadlines")
    return max((run.get("shards", 0) for run in runs), default=0)


def check_serve_prometheus(scalars, num_shards, failures):
    """Per-shard labels and shard="all" roll-up consistency in the merged
    exposition. Gauges carry shard labels but no roll-up; every counter
    and histogram _count/_sum with an "all" sample must equal the sum of
    its numeric-shard siblings ( _sum within float tolerance)."""
    groups = {}
    for (name, labels), value in scalars.items():
        rest = dict(labels)
        shard = rest.pop("shard", None)
        if shard is None:
            continue
        key = (name, tuple(sorted(rest.items())))
        groups.setdefault(key, {})[shard] = value
    if not groups:
        failures.append("serve prom: no shard-labelled samples at all")
        return
    shards_seen = set()
    rollups_checked = 0
    for (name, labels), by_shard in groups.items():
        shards_seen.update(s for s in by_shard if s != "all")
        if "all" not in by_shard:
            continue  # per-shard gauge: no roll-up by design
        total = sum(v for s, v in by_shard.items() if s != "all")
        rollup = by_shard["all"]
        tolerance = (
            1e-6 * max(1.0, abs(rollup)) if name.endswith("_sum") else 0
        )
        if abs(total - rollup) > tolerance:
            failures.append(
                f"serve prom {name}{dict(labels)}: per-shard sum {total} "
                f"!= shard=\"all\" {rollup}"
            )
        else:
            rollups_checked += 1
    expected = {str(i) for i in range(num_shards)}
    missing = expected - shards_seen
    if missing:
        failures.append(
            f"serve prom: no samples for shard(s) {sorted(missing)}"
        )
    request_shards = set()
    for (name, _), by_shard in groups.items():
        if name == "rpqres_requests_total":
            request_shards.update(s for s in by_shard if s != "all")
    if not expected <= request_shards:
        failures.append(
            "serve prom: rpqres_requests_total missing per-shard series: "
            f"have {sorted(request_shards)}, want {sorted(expected)}"
        )
    if rollups_checked == 0:
        failures.append("serve prom: no shard=\"all\" roll-ups found")


def check_persist_json(doc, failures):
    """Structure and invariants of BENCH_persist.json."""
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        failures.append("persist json: no 'runs' list")
        return
    by_key = {}
    for run in runs:
        by_key[(run.get("name"), run.get("num_facts"))] = run
        if run.get("reps", 0) <= 0:
            failures.append(
                f"persist run {run.get('name')}@{run.get('num_facts')}: "
                "no timed reps"
            )
        p50, p95 = run.get("p50_micros", 0), run.get("p95_micros", 0)
        if not 0 < p50 <= p95:
            failures.append(
                f"persist run {run.get('name')}@{run.get('num_facts')}: "
                f"implausible quantiles p50={p50} p95={p95}"
            )
    for num_facts in (4000, 64000):
        cold = by_key.get(("segment_cold_load", num_facts))
        reparse = by_key.get(("text_reparse", num_facts))
        if cold is None or reparse is None:
            failures.append(
                f"persist json: missing segment_cold_load/text_reparse "
                f"pair at {num_facts} facts"
            )
            continue
        if cold.get("resilience_checksum") < 0:
            failures.append(
                f"persist run segment_cold_load@{num_facts}: solve failed "
                f"(checksum {cold.get('resilience_checksum')})"
            )
        if cold.get("resilience_checksum") != reparse.get(
                "resilience_checksum"):
            failures.append(
                f"persist json: answers diverged at {num_facts} facts: "
                f"checksum {cold.get('resilience_checksum')} (cold load) "
                f"!= {reparse.get('resilience_checksum')} (reparse)"
            )
    speedups = {
        entry.get("num_facts"): entry.get("cold_load_x_reparse", 0)
        for entry in doc.get("speedup", [])
    }
    if 64000 not in speedups:
        failures.append("persist json: no 64k-fact speedup entry")
    elif speedups[64000] < PERSIST_SPEEDUP_FLOOR:
        failures.append(
            f"persist json: 64k cold load only {speedups[64000]:.2f}x "
            f"text reparse (floor {PERSIST_SPEEDUP_FLOOR}x)"
        )
    replay = doc.get("journal_replay", {})
    if replay.get("commits", 0) < 100 or replay.get("records", 0) <= 0:
        failures.append(
            "persist json: journal_replay missing or replayed nothing"
        )
    elif replay.get("p50_micros", 0) <= 0:
        failures.append("persist json: journal_replay has no timing")


def check_faults_json(doc, failures):
    """Structure and gates of BENCH_faults.json."""
    runs = {run.get("name"): run for run in doc.get("runs", [])}
    for name in ("failpoints_disabled", "failpoints_armed_p0"):
        if name not in runs:
            failures.append(f"faults json: missing run '{name}'")
    if len(failures) > 0 or len(runs) < 2:
        return
    disabled = runs["failpoints_disabled"]
    armed = runs["failpoints_armed_p0"]
    for name, run in runs.items():
        if run.get("commits", 0) <= 0:
            failures.append(f"faults run {name}: no timed commits")
        p50, p95 = run.get("p50_micros", 0), run.get("p95_micros", 0)
        if not 0 < p50 <= p95:
            failures.append(
                f"faults run {name}: implausible quantiles "
                f"p50={p50} p95={p95}"
            )
        if run.get("resilience_checksum") != run.get("restored_checksum"):
            failures.append(
                f"faults run {name}: reopened directory answers differently "
                f"(checksum {run.get('resilience_checksum')} vs restored "
                f"{run.get('restored_checksum')})"
            )
    if disabled.get("resilience_checksum") != armed.get(
            "resilience_checksum"):
        failures.append(
            "faults json: armed-p0 storm diverged from the disabled storm: "
            f"checksum {armed.get('resilience_checksum')} != "
            f"{disabled.get('resilience_checksum')}"
        )
    if doc.get("armed_p0_fires", -1) != 0:
        failures.append(
            f"faults json: armed-p0 recorded "
            f"{doc.get('armed_p0_fires')} fires (want 0)"
        )
    if doc.get("sites", 0) <= 0:
        failures.append("faults json: no failpoint sites registered")
    overhead = doc.get("overhead", {})
    if not overhead.get("disabled_pass", False):
        failures.append(
            "faults json: disabled-path overhead gate failed: "
            f"{overhead.get('disabled_fraction_of_p50', 'missing')} of the "
            f"commit p50 (budget {overhead.get('disabled_budget')})"
        )
    if not overhead.get("armed_pass", False):
        failures.append(
            "faults json: armed-p0 sanity ratio failed: "
            f"{overhead.get('armed_p0_p50_x_disabled', 'missing')}x "
            f"(budget {overhead.get('armed_sanity_budget')}x)"
        )
    if not doc.get("checksums_equal", False):
        failures.append("faults json: bench reported checksums_equal=false")


def main(argv):
    argv = list(argv)
    serve_mode = "--serve" in argv
    if serve_mode:
        argv.remove("--serve")
    persist_mode = "--persist" in argv
    if persist_mode:
        argv.remove("--persist")
    faults_mode = "--faults" in argv
    if faults_mode:
        argv.remove("--faults")
    if len(argv) < 2 or serve_mode + persist_mode + faults_mode > 1:
        print(__doc__, file=sys.stderr)
        return 2
    json_path = argv[1]

    with open(json_path) as f:
        doc = json.load(f)

    failures = []
    if faults_mode:
        check_faults_json(doc, failures)
        if failures:
            print("metrics export validation failed:", file=sys.stderr)
            for failure in failures:
                print(f"  * {failure}", file=sys.stderr)
            return 1
        overhead = doc.get("overhead", {})
        print(
            f"faults bench ok: {doc.get('sites')} sites, disabled check "
            f"{overhead.get('disabled_check_ns', 0):.1f}ns "
            f"({100 * overhead.get('disabled_fraction_of_p50', 0):.4f}% of "
            "the commit p50), armed-p0 "
            f"{overhead.get('armed_p0_p50_x_disabled', 0):.3f}x, "
            "checksums equal"
        )
        return 0
    if persist_mode:
        check_persist_json(doc, failures)
        if failures:
            print("metrics export validation failed:", file=sys.stderr)
            for failure in failures:
                print(f"  * {failure}", file=sys.stderr)
            return 1
        speedup = {
            e["num_facts"]: e["cold_load_x_reparse"]
            for e in doc.get("speedup", [])
        }
        print(
            f"persist bench ok: {len(doc['runs'])} runs, cold load "
            f"{speedup.get(64000, 0):.1f}x reparse at 64k facts, "
            "checksums equal, journal replay validated"
        )
        return 0

    prom_path = (
        argv[2]
        if len(argv) > 2
        else (json_path[: -len(".json")] if json_path.endswith(".json")
              else json_path) + ".prom"
    )
    with open(prom_path) as f:
        prom_text = f.read()

    scalars = check_prometheus(prom_text, failures)
    if serve_mode:
        num_shards = check_serve_json(doc, failures)
        check_serve_prometheus(scalars, num_shards, failures)
    else:
        check_embedded_metrics(doc, failures)
        check_scenario_histograms(doc, failures)
        check_obs_pair(doc, failures)

    if failures:
        print("metrics export validation failed:", file=sys.stderr)
        for failure in failures:
            print(f"  * {failure}", file=sys.stderr)
        return 1
    if serve_mode:
        print(
            f"serve metrics export ok: {len(doc['runs'])} shard-count runs, "
            "merged multi-shard exposition and BENCH_serve.json validated"
        )
    else:
        print(
            f"metrics export ok: {len(doc['scenarios'])} scenario "
            "histograms, Prometheus exposition and embedded JSON metrics "
            "validated"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
