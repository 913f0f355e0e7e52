#!/usr/bin/env python3
"""Project-invariant lints for rpqres (PR-10).

Mechanical contracts that neither the compiler nor clang-tidy knows
about, enforced over the source tree:

  storage-raw-syscall
      In src/storage/, the syscalls that the failpoint layer wraps
      (open/write/fsync/rename/ftruncate/close/mmap) must be called
      through their fault:: wrappers so every durability-relevant I/O
      is crash-testable. Raw `::open(` etc. is a violation. The fault
      layer itself (src/fault/) is the one place raw syscalls belong.

  workload-nondeterminism
      src/workload/ is the deterministic replay layer: every draw comes
      from a seeded SplitMix64 stream. `rand(`/`srand(`,
      `std::random_device`, `time(` and wall-clock (`system_clock`)
      seeding are banned. Monotonic clocks (steady_clock) are fine —
      they time work, they don't influence it.

  tsa-suppression-justified
      Every use of RPQRES_NO_THREAD_SAFETY_ANALYSIS (outside its
      definition) must carry an inline justification comment on the
      same or the preceding line. Blanket analysis opt-outs rot.

  solver-db-rebuild
      The flow solvers (src/resilience/{local,bcl,one_dangling}_resilience.cc)
      read the caller's database through its LabelIndex and emit their
      networks straight into the scratch ResidualGraph; they never build
      a database. A call to `AddNode(`, `AddFact(`, `MirrorDb(`,
      `Compact(` or `RemoveFacts(` there is a violation.

  solver-language-work
      The same flow solvers read IF(L)'s tables from a plan
      (ResiliencePlan, built once by the planner in
      src/resilience/resilience.cc); they do no language work. A call of
      `InfixFreeSublanguage(` there is a violation.

  classify-word-list
      The Figure 1 classifier (src/classify/) reads every fact about a
      language off its minimal DFA and lists no words: a finite IF(L) may
      have more words than memory holds. A call of `Words(`,
      `WordsUpTo(`, `EnumerateFiniteLanguage(` or `WordsUpToLength(`
      there is a violation; `FirstWordsUpToLength(`, which stops at the
      words it is asked for, is not.

Suppressions: a violating line is waived by `invariant-ok: <reason>`
(optionally `invariant-ok(<rule>): <reason>`) in a comment on the same
line or the line directly above. The reason is mandatory — an empty
one is itself a violation. The script counts suppressions and prints
the tally so reviews can see waivers grow.

Exit status: 0 clean, 1 violations found, 2 usage/self-test failure.

`--self-test` runs the scanner against built-in bad snippets and
asserts that exactly the seeded violations are reported.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SUPPRESS_RE = re.compile(r"invariant-ok(?:\((?P<rule>[a-z-]+)\))?:\s*(?P<reason>\S.*)?")

# Syscalls that fault/failpoints.h wraps; src/storage must use the wrappers.
RAW_SYSCALL_RE = re.compile(r"::(open|write|fsync|rename|ftruncate|close|mmap)\s*\(")

NONDETERMINISM_RES = [
    (re.compile(r"\bs?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\bsystem_clock\b"), "wall clock (std::chrono::system_clock)"),
]

TSA_OPTOUT = "RPQRES_NO_THREAD_SAFETY_ANALYSIS"

# The flow solvers, and the GraphDb calls that would build a database.
FLOW_SOLVER_FILES = {
    f"src/resilience/{name}_resilience.cc"
    for name in ("local", "bcl", "one_dangling")
}
DB_REBUILD_RE = re.compile(
    r"\b(AddNode|AddFact|MirrorDb|Compact|RemoveFacts)\s*\(")
# The language work the planner does once, which a flow solver must not
# repeat per solve.
LANGUAGE_WORK_RE = re.compile(r"\bInfixFreeSublanguage\s*\(")

# The calls that list every word of a language (or every word up to a
# length), which the classifier must not make.
WORD_LIST_RE = re.compile(
    r"\b(Words|WordsUpTo|EnumerateFiniteLanguage|WordsUpToLength)\s*\(")


class Finding:
    def __init__(self, rule: str, path: str, line_no: int, message: str):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def _suppression(lines: list[str], idx: int, rule: str):
    """Returns ("ok" | "empty-reason" | None) for line `idx` (0-based).

    A suppression applies if the marker sits on the violating line itself
    or anywhere in the contiguous `//` comment block directly above it.
    """
    probes = [idx]
    probe = idx - 1
    while probe >= 0 and lines[probe].lstrip().startswith("//"):
        probes.append(probe)
        probe -= 1
    for probe in probes:
        m = SUPPRESS_RE.search(lines[probe])
        if not m:
            continue
        if m.group("rule") and m.group("rule") != rule:
            continue
        return "ok" if m.group("reason") else "empty-reason"
    return None


def scan_file(rel_path: str, text: str):
    """Scans one file; returns (findings, suppression_count)."""
    findings: list[Finding] = []
    suppressions = 0
    lines = text.splitlines()
    in_storage = rel_path.startswith("src/storage/")
    in_workload = rel_path.startswith("src/workload/")
    is_annotation_header = rel_path.endswith("util/thread_annotations.h")
    is_flow_solver = rel_path in FLOW_SOLVER_FILES
    in_classify = rel_path.startswith("src/classify/")

    def check(idx: int, rule: str, message: str):
        nonlocal suppressions
        state = _suppression(lines, idx, rule)
        if state == "ok":
            suppressions += 1
        elif state == "empty-reason":
            findings.append(
                Finding(rule, rel_path, idx + 1,
                        "suppression without a reason: " + message))
        else:
            findings.append(Finding(rule, rel_path, idx + 1, message))

    for idx, line in enumerate(lines):
        if in_storage:
            m = RAW_SYSCALL_RE.search(line)
            if m:
                check(idx, "storage-raw-syscall",
                      f"raw ::{m.group(1)}( — use fault::{m.group(1).capitalize()} "
                      "or add an invariant-ok comment explaining why this "
                      "call is outside the crash-injection surface")
        if in_workload:
            for pattern, what in NONDETERMINISM_RES:
                if pattern.search(line):
                    check(idx, "workload-nondeterminism",
                          f"{what} in the deterministic workload layer — "
                          "draw from the seeded rng instead")
        if TSA_OPTOUT in line and not is_annotation_header:
            # The opt-out demands a justification comment on its line or
            # the one above; reuse the suppression mechanism for that.
            check(idx, "tsa-suppression-justified",
                  f"{TSA_OPTOUT} without an invariant-ok justification")
        if is_flow_solver:
            m = DB_REBUILD_RE.search(line)
            if m:
                check(idx, "solver-db-rebuild",
                      f"{m.group(1)}( in a flow solver — read the caller's "
                      "database through its LabelIndex and emit the network "
                      "into the scratch ResidualGraph instead")
            m = LANGUAGE_WORK_RE.search(line)
            if m:
                check(idx, "solver-language-work",
                      "InfixFreeSublanguage( in a flow solver — read IF(L)'s "
                      "tables from the plan (PlanResilienceWithIF builds "
                      "them once) instead of recomputing IF(L) per solve")
        if in_classify:
            m = WORD_LIST_RE.search(line)
            if m:
                check(idx, "classify-word-list",
                      f"{m.group(1)}( in the classifier — read the fact off "
                      "the minimal DFA (a walk, CountWordsByLength or "
                      "FirstWordsUpToLength) instead of listing the words")
    return findings, suppressions


def scan_tree(root: Path):
    findings: list[Finding] = []
    suppressions = 0
    for path in sorted(root.glob("src/**/*")):
        if path.suffix not in {".cc", ".h"}:
            continue
        rel = path.relative_to(root).as_posix()
        f, s = scan_file(rel, path.read_text(encoding="utf-8"))
        findings.extend(f)
        suppressions += s
    return findings, suppressions


# ---------------------------------------------------------------------------
# Self-test: seeded bad snippets and the exact findings they must produce.

SELF_TEST_CASES = [
    # (virtual path, source, expected list of (rule, line_no))
    (
        "src/storage/bad_segment.cc",
        "int fd = ::open(path, O_RDONLY);\n"
        "::close(fd);\n",
        [("storage-raw-syscall", 1), ("storage-raw-syscall", 2)],
    ),
    (
        "src/storage/suppressed_segment.cc",
        "// invariant-ok(storage-raw-syscall): read path, not crash-swept\n"
        "int fd = ::open(path, O_RDONLY);\n"
        "::close(fd);  // invariant-ok: error-path cleanup\n",
        [],
    ),
    (
        "src/storage/empty_reason.cc",
        "::fsync(fd);  // invariant-ok:\n",
        [("storage-raw-syscall", 1)],
    ),
    (
        "src/storage/wrong_rule_suppression.cc",
        "// invariant-ok(workload-nondeterminism): mismatched rule name\n"
        "::rename(a, b);\n",
        [("storage-raw-syscall", 2)],
    ),
    (
        "src/workload/bad_traffic.cc",
        "#include <ctime>\n"
        "uint64_t seed = time(nullptr);\n"
        "int r = rand();\n"
        "std::random_device rd;\n"
        "auto now = std::chrono::system_clock::now();\n",
        [
            ("workload-nondeterminism", 2),
            ("workload-nondeterminism", 3),
            ("workload-nondeterminism", 4),
            ("workload-nondeterminism", 5),
        ],
    ),
    (
        "src/workload/good_traffic.cc",
        "auto t0 = std::chrono::steady_clock::now();\n"
        "uint64_t draw = SplitMix64(state);\n",
        [],
    ),
    (
        "src/util/bad_optout.cc",
        "void Peek() RPQRES_NO_THREAD_SAFETY_ANALYSIS {\n"
        "}\n",
        [("tsa-suppression-justified", 1)],
    ),
    (
        "src/util/good_optout.cc",
        "// invariant-ok(tsa-suppression-justified): racy-read stats probe,\n"
        "void Peek() RPQRES_NO_THREAD_SAFETY_ANALYSIS {\n"
        "}\n",
        [],
    ),
    (
        "src/resilience/one_dangling_resilience.cc",
        "GraphDb rewritten;\n"
        "NodeId mid = rewritten.AddNode(\"(v,in)\");\n"
        "rewritten.AddFact(mid, z, v, z_mult);\n"
        "GraphDb flat = db.Compact(&old_id_of);\n"
        "GraphDb mirror = db.MirrorDb();\n"
        "GraphDb rest = db.RemoveFacts(cut);\n"
        "int32_t middle = network.AddVertex();\n",
        [
            ("solver-db-rebuild", 2),
            ("solver-db-rebuild", 3),
            ("solver-db-rebuild", 4),
            ("solver-db-rebuild", 5),
            ("solver-db-rebuild", 6),
        ],
    ),
    (
        # Building databases is fine outside the flow solvers.
        "src/resilience/exact.cc",
        "GraphDb rest = db.RemoveFacts(cut);\n",
        [],
    ),
    (
        "src/resilience/bcl_resilience.cc",
        "Language ifl = InfixFreeSublanguage(lang);\n",
        [("solver-language-work", 1)],
    ),
    (
        # The planner is where IF(L) is computed.
        "src/resilience/resilience.cc",
        "Language ifl = InfixFreeSublanguage(lang);\n",
        [],
    ),
    (
        "src/classify/bad_classifier.cc",
        "Result<std::vector<std::string>> listed = ifl.Words();\n"
        "auto short_words = lang.WordsUpTo(5, 16);\n"
        "auto all = EnumerateFiniteLanguage(dfa);\n"
        "auto some = WordsUpToLength (dfa, 8);\n",
        [
            ("classify-word-list", 1),
            ("classify-word-list", 2),
            ("classify-word-list", 3),
            ("classify-word-list", 4),
        ],
    ),
    (
        # The bounded display and word-list arguments are not listings.
        "src/classify/good_classifier.cc",
        "first_words = FirstWordsUpToLength(dfa, dfa.num_states(), 32);\n"
        "Language lang = Language::FromWords(words);\n"
        "out.if_language = ShowFiniteLanguage(first_words, count);\n",
        [],
    ),
    (
        # Word lists are fine outside the classifier.
        "src/lang/chain.cc",
        "Result<std::vector<std::string>> words = lang.Words(max_words);\n",
        [],
    ),
    (
        # Raw syscalls outside src/storage are out of scope for the rule.
        "src/fault/wrappers.cc",
        "return ::write(fd, buf, count);\n",
        [],
    ),
]


def self_test() -> int:
    failures = 0
    for rel_path, source, expected in SELF_TEST_CASES:
        findings, _ = scan_file(rel_path, source)
        got = [(f.rule, f.line_no) for f in findings]
        if got != expected:
            failures += 1
            print(f"self-test FAIL: {rel_path}")
            print(f"  expected: {expected}")
            print(f"  got:      {got}")
    if failures:
        print(f"self-test: {failures}/{len(SELF_TEST_CASES)} cases failed")
        return 2
    print(f"self-test: {len(SELF_TEST_CASES)} cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repo root to scan (default: the checkout)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the scanner against seeded bad snippets")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings, suppressions = scan_tree(args.root)
    for finding in findings:
        print(finding)
    print(f"check_invariants: {len(findings)} violation(s), "
          f"{suppressions} justified suppression(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
