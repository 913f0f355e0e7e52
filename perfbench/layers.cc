// Per-layer probes of the traced run. Each layer is timed from outside,
// by calling its public functions on the same seeded inputs the workloads
// use: the compile steps on cold_regex's regexes, the solvers on
// solve_matrix's graphs (with a benchmark-owned SolverScratch and
// TraceContext), registry registration, and the storage formats.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "classify/classifier.h"
#include "engine/plan_cache.h"
#include "flow/solver_scratch.h"
#include "graphdb/label_index.h"
#include "lang/chain.h"
#include "lang/infix_free.h"
#include "lang/one_dangling.h"
#include "lang/ro_enfa.h"
#include "regex/parser.h"
#include "resilience/ro_tables.h"
#include "storage/segment.h"
#include "workload.h"

namespace perfbench {

using rpqres::obs::SpanKind;
using rpqres::obs::TraceContext;
using rpqres::Semantics;

namespace {

// Keeps probe results observable so the calls are not optimised away.
volatile int64_t g_sink = 0;

template <typename Fn>
double TimeMicros(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return MicrosBetween(start, Clock::now());
}

// ---------------------------------------------------------------------------
// compile: regex, automata, lang, classify, engine/compiled_query

void ProbeCompile(const Args& args, Report* report) {
  const std::vector<std::string> regexes =
      RegexPool(args.seed, args.tiny ? 40 : 300);
  std::vector<double> total, parse, automata, infix_free, classify, plan,
      exact_tables, dfa_states;
  rpqres::CompileOptions compile_options;
  compile_options.max_word_length = kColdRegexWordBound;
  for (const std::string& regex : regexes) {
    const double parse_us =
        TimeMicros([&] { g_sink = rpqres::ParseRegex(regex).ok(); });
    rpqres::Result<rpqres::Language> language = rpqres::Status::Internal("");
    const double language_us = TimeMicros(
        [&] { language = rpqres::Language::FromRegexString(regex); });
    if (!language.ok()) continue;
    rpqres::Language ifl = *language;
    const double infix_us =
        TimeMicros([&] { ifl = rpqres::InfixFreeSublanguage(*language); });
    const double classify_us = TimeMicros([&] {
      g_sink = rpqres::ClassifyResilienceWithIF(*language, ifl,
                                                kColdRegexWordBound)
                   .ok();
    });
    rpqres::Language ifl_copy = ifl;
    const double plan_us = TimeMicros([&] {
      g_sink = rpqres::PlanResilienceWithIF(std::move(ifl_copy)).ok();
    });
    const double tables_us = TimeMicros([&] {
      rpqres::Result<rpqres::Enfa> ro = rpqres::BuildRoEnfa(*language);
      if (ro.ok()) g_sink = rpqres::BuildRoProductTables(*ro).ok();
    });
    const double total_us = TimeMicros([&] {
      g_sink = rpqres::CompileQuery(regex, Semantics::kBag, compile_options)
                   .ok();
    });
    parse.push_back(parse_us);
    automata.push_back(std::max(0.0, language_us - parse_us));
    infix_free.push_back(infix_us);
    classify.push_back(classify_us);
    plan.push_back(plan_us);
    exact_tables.push_back(tables_us);
    total.push_back(total_us);
    dfa_states.push_back(language->min_dfa().num_states());
  }
  report->Add("compile.total_us", Median(total), "us");
  report->Add("compile.parse_us", Median(parse), "us");
  report->Add("compile.automata_us", Median(automata), "us");
  report->Add("compile.infix_free_us", Median(infix_free), "us");
  report->Add("compile.classify_us", Median(classify), "us");
  report->Add("compile.plan_us", Median(plan), "us");
  report->Add("compile.exact_tables_us", Median(exact_tables), "us");
  report->Add("compile.dfa_states", Median(dfa_states), "count");
}

// ---------------------------------------------------------------------------
// resilience (the four solvers) and flow (ResidualGraph)

struct SolveProbe {
  double median_us = 0;
  double solve_us = 0;  // summed over the timed calls, like the phases
  double prune_us = 0, build_us = 0, dinic_us = 0, cut_us = 0;
  int64_t dropped = 0;
  rpqres::ResilienceResult result;
};

SolveProbe ProbeSolve(const rpqres::CompiledQuery& query,
                      const rpqres::DbHandle& db, int repeats) {
  SolveProbe probe;
  rpqres::SolverScratch scratch;
  std::vector<double> times;
  for (int i = 0; i <= repeats; ++i) {  // call 0 grows the scratch
    TraceContext trace;
    scratch.trace = &trace;
    const int root = trace.Begin(SpanKind::kSolve);
    const Clock::time_point start = Clock::now();
    rpqres::Result<rpqres::ResilienceResult> result =
        rpqres::ComputeResilienceWithPlan(query.plan, db.db(), Semantics::kBag,
                                          {}, db.label_index(), &scratch);
    const double us = MicrosBetween(start, Clock::now());
    trace.End(root);
    scratch.trace = nullptr;
    if (result.ok()) probe.result = *std::move(result);
    if (i == 0) continue;
    times.push_back(us);
    probe.solve_us += SpanMicros(trace, SpanKind::kSolve);
    probe.prune_us += SpanMicros(trace, SpanKind::kProductPrune);
    probe.build_us += SpanMicros(trace, SpanKind::kFlowBuild);
    probe.dinic_us += SpanMicros(trace, SpanKind::kDinic);
    probe.cut_us += SpanMicros(trace, SpanKind::kCutExtract);
    probe.dropped += trace.dropped();
  }
  probe.median_us = Median(times);
  return probe;
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Least-squares slope of log(time) against log(facts).
double LogLogSlope(const std::vector<double>& facts,
                   const std::vector<double>& micros) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    const double x = std::log(facts[i]);
    const double y = std::log(std::max(micros[i], 1e-3));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denominator = n * sxx - sx * sx;
  return denominator != 0 ? (n * sxy - sx * sy) / denominator : 0;
}

int64_t ProbeSolvers(const Args& args, Report* report) {
  const std::vector<MatrixQuery>& queries = MatrixQueries();
  const std::vector<std::string> sizes = MatrixSizeLabels();
  const std::vector<int> repeats = args.tiny ? std::vector<int>{5, 5, 5}
                                             : std::vector<int>{40, 10, 3};
  rpqres::DbRegistry registry;
  int64_t dropped = 0;

  // registry: Register cost per thousand facts, on the matrix graphs.
  std::vector<rpqres::GraphDb> graphs;
  for (int q = 0; q < kExactQuery; ++q) {
    for (int s = 0; s < 3; ++s) {
      graphs.push_back(MatrixGraph(args.seed, q, s, /*variant=*/0, args.tiny));
    }
  }
  double facts = 0;
  for (const rpqres::GraphDb& g : graphs) facts += g.num_live_facts();
  std::vector<double> register_us;
  for (int rep = 0; rep < 3; ++rep) {
    double us = 0;
    for (const rpqres::GraphDb& g : graphs) {
      rpqres::DbRegistry scratch_registry;
      rpqres::GraphDb copy = g;
      us += TimeMicros([&] {
        g_sink = scratch_registry.Register(std::move(copy)).id();
      });
    }
    register_us.push_back(us);
  }
  report->Add("registry.register_us_per_kfact",
              Median(register_us) / (facts / 1000.0), "us/kfact");

  const char* bounds[3] = {
      "Thm 3.13: near-linear in |D|, O~(|A|.|D|.|S|)",
      "Prp 7.6: O~(|A|.|D|^2.|S|^2), as stated in bcl_resilience.h",
      "Prp 7.9: polynomial in |D|"};
  for (int q = 0; q < kExactQuery; ++q) {
    auto compiled = rpqres::CompileQuery(queries[q].regex, Semantics::kBag);
    if (!compiled.ok()) continue;
    std::vector<double> fact_counts, medians;
    double solve = 0, prune = 0, build = 0, dinic = 0, cut = 0;
    double edges = 0, live_facts = 0, live = 0, product = 0;
    for (int s = 0; s < 3; ++s) {
      const rpqres::DbHandle db =
          registry.Register(graphs[static_cast<size_t>(3 * q + s)]);
      const SolveProbe probe = ProbeSolve(**compiled, db, repeats[s]);
      report->Add("resilience." + queries[q].name + "." + sizes[s] + "_us",
                  probe.median_us, "us");
      fact_counts.push_back(db.db().num_live_facts());
      medians.push_back(probe.median_us);
      solve += probe.solve_us;
      prune += probe.prune_us;
      build += probe.build_us;
      dinic += probe.dinic_us;
      cut += probe.cut_us;
      dropped += probe.dropped;
      edges += static_cast<double>(probe.result.network_edges);
      live_facts += db.db().num_live_facts();
      // Live product vertices are the network's minus source and target.
      const double live_vertices = std::max<double>(
          0, static_cast<double>(probe.result.network_vertices) - 2);
      live += live_vertices;
      product += live_vertices +
                 static_cast<double>(probe.result.product_vertices_pruned);
    }
    const std::string solver = "resilience." + queries[q].name;
    const std::string flow = "flow." + queries[q].name;
    const double spanned = prune + build + dinic + cut;
    if (q == 0) {
      report->Add("resilience.local.prune_share", Share(prune, solve), "share");
      report->Add("resilience.local.live_share", Share(live, product), "share");
    } else {
      report->Add(solver + ".unspanned_share",
                  std::max(0.0, 1.0 - Share(spanned, solve)), "share");
      if (q == 2) {
        report->Add("resilience.onedangling.prune_share", Share(prune, solve),
                    "share");
      }
    }
    report->Add(flow + ".build_share", Share(build, solve), "share");
    report->Add(flow + ".dinic_share", Share(dinic, solve), "share");
    report->Add(flow + ".cut_share", Share(cut, solve), "share");
    report->Add(flow + ".edges_per_fact", Share(edges, live_facts),
                "edges/fact");
    const double slope = LogLogSlope(fact_counts, medians);
    report->Add(solver + ".slope", slope, "exponent");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "paper bound: %s.slope = %.2f (log-log, 3 sizes) vs %s",
                  solver.c_str(), slope, bounds[q]);
    report->Note(line);

    // The language work the solver repeats on every request.
    if (q == 1 || q == 2) {
      const rpqres::Language& lang = (*compiled)->plan.if_language;
      std::vector<double> lang_us;
      for (int i = 0; i < (args.tiny ? 20 : 200); ++i) {
        lang_us.push_back(TimeMicros([&] {
          rpqres::Language ifl = rpqres::InfixFreeSublanguage(lang);
          g_sink = q == 1
                       ? rpqres::AnalyzeChain(ifl).is_chain
                       : rpqres::FindOneDanglingDecomposition(ifl).has_value();
        }));
      }
      report->Add(solver + ".lang_us", Median(lang_us), "us");
    }
  }

  // The exact fallback on the 8-node graphs.
  auto exact =
      rpqres::CompileQuery(queries[kExactQuery].regex, Semantics::kBag);
  std::vector<double> exact_us;
  double search_nodes = 0;
  if (exact.ok()) {
    for (int g = 0; g < kExactGraphs; ++g) {
      const rpqres::DbHandle db = registry.Register(ExactGraph(args.seed, g));
      const SolveProbe probe = ProbeSolve(**exact, db, args.tiny ? 3 : 10);
      exact_us.push_back(probe.median_us);
      search_nodes += static_cast<double>(probe.result.search_nodes);
      dropped += probe.dropped;
    }
  }
  report->Add("resilience.exact.n8_us", Median(exact_us), "us");
  report->Add("resilience.exact.search_nodes", search_nodes, "count");
  return dropped;
}

// ---------------------------------------------------------------------------
// storage: segments, journal, recovery

void ProbeStorage(const Args& args, const Replay& replay, Report* report) {
  namespace fs = std::filesystem;
  const std::string dir = args.workdir + "/probe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const rpqres::workload::TrafficOptions options =
      ServeTrafficOptions(args.tiny);
  const rpqres::workload::TrafficTrace trace(args.seed, options);

  std::vector<double> write_us, read_us;
  for (int i = 0; i < trace.num_lineages(); ++i) {
    const rpqres::GraphDb db = trace.MakeDb(i);
    const std::string path = dir + "/lineage" + std::to_string(i) + ".seg";
    rpqres::storage::SegmentMeta meta;
    meta.lineage = static_cast<uint64_t>(i) + 1;
    meta.snapshot_id = meta.lineage;
    meta.name = trace.lineage_name(i);
    write_us.push_back(TimeMicros(
        [&] { g_sink = rpqres::storage::WriteSegment(path, db, meta).ok(); }));
    read_us.push_back(TimeMicros(
        [&] { g_sink = rpqres::storage::ReadSegment(path).ok(); }));
  }
  report->Add("storage.segment_write_us", Median(write_us), "us");
  report->Add("storage.segment_read_us", Median(read_us), "us");

  // The run's commits, appended group by group (each fsync'd) into a
  // journal of the benchmark's own.
  std::vector<double> append_us;
  double bytes_per_commit = 0;
  rpqres::Result<rpqres::storage::JournalWriter> journal =
      rpqres::storage::JournalWriter::Open(dir + "/probe.jrn", 1);
  if (journal.ok()) {
    const int64_t header = journal->bytes();
    for (const StagedCommit& commit : replay.commits.staged) {
      if (!commit.status.ok() || append_us.size() >= 256) continue;
      append_us.push_back(
          TimeMicros([&] { g_sink = journal->Append(commit.group).ok(); }));
    }
    if (!append_us.empty()) {
      bytes_per_commit = static_cast<double>(journal->bytes() - header) /
                         static_cast<double>(append_us.size());
    }
  }
  report->Add("storage.journal_append_us", Median(append_us), "us");
  report->Add("storage.bytes_per_commit", bytes_per_commit, "bytes");

  // Recovery: the run's own storage directory when it has one, else a
  // fleet persisted here from the same trace.
  std::string recover_dir = replay.recover_dir;
  rpqres::EngineOptions engine;
  engine.num_threads = 1;
  if (recover_dir.empty()) {
    recover_dir = dir + "/fleet";
    rpqres::DbRegistry::Options registry_options;
    registry_options.storage_dir = recover_dir;
    rpqres::serve::ShardedRegistry fleet(1, engine, registry_options);
    for (int i = 0; i < trace.num_lineages(); ++i) {
      fleet.Register(trace.MakeDb(i), trace.lineage_name(i));
    }
    for (const rpqres::workload::TrafficOp& op :
         TrafficCommits(args.seed, options, args.tiny ? 50 : 500)) {
      g_sink =
          rpqres::workload::TrafficTrace::ApplyCommit(op, &fleet.registry(0))
              .ok();
    }
  }
  std::vector<double> recover_ms, replay_us;
  rpqres::DbRegistry::Options registry_options;
  registry_options.storage_dir = recover_dir;
  for (int i = 0; i < 5; ++i) {
    rpqres::Result<std::unique_ptr<rpqres::serve::ShardedRegistry>> reopened =
        rpqres::Status::Internal("");
    recover_ms.push_back(
        TimeMicros([&] {
          reopened = rpqres::serve::ShardedRegistry::OpenStorage(
              1, engine, registry_options);
        }) /
        1000.0);
    if (!reopened.ok()) {
      report->Note("storage: reopening " + recover_dir + " failed: " +
                   reopened.status().ToString());
      report->correct = false;
      break;
    }
    replay_us.push_back(static_cast<double>(
        (*reopened)->registry(0).gauges().storage_replay_micros));
  }
  report->Add("storage.replay_us", Median(replay_us), "us");
  report->Add("storage.recover_ms", Median(recover_ms), "ms");
}

}  // namespace

ResultCacheHit ProbeResultCacheHit(const Args& args) {
  rpqres::EngineOptions options;
  options.num_threads = 1;
  options.result_cache_capacity = 16;
  rpqres::ResilienceEngine engine(options);
  rpqres::DbRegistry registry;
  const rpqres::workload::TrafficTrace trace(args.seed,
                                             ServeTrafficOptions(args.tiny));
  rpqres::ResilienceRequest request;
  request.regex = rpqres::workload::TrafficReadPool()[0];
  request.db = registry.Register(trace.MakeDb(0), trace.lineage_name(0));
  request.semantics = Semantics::kBag;
  g_sink = engine.Evaluate(request).status.ok();  // fills the cache
  std::vector<double> lookup_us, read_us;
  for (int i = 0; i < (args.tiny ? 200 : 2000); ++i) {
    TraceContext context;
    request.options.trace = &context;
    read_us.push_back(TimeMicros(
        [&] { g_sink = engine.Evaluate(request).stats.result_cache_hit; }));
    lookup_us.push_back(SpanMicros(context, SpanKind::kResultCacheLookup));
  }
  return {Median(lookup_us), Median(read_us)};
}

double PlanCacheProbeMicros(
    const std::vector<std::shared_ptr<const rpqres::CompiledQuery>>& resident,
    const std::vector<std::string>& probes, Semantics semantics) {
  rpqres::PlanCache cache(256);
  for (const auto& plan : resident) (void)cache.Insert(plan);
  constexpr int kLookups = 4096;
  std::vector<double> per_lookup;
  for (int batch = 0; batch < 7; ++batch) {
    const double us = TimeMicros([&] {
      for (int i = 0; i < kLookups; ++i) {
        g_sink = cache.Lookup(probes[i % probes.size()], semantics) != nullptr;
      }
    });
    per_lookup.push_back(us / kLookups);
  }
  return Median(per_lookup);
}

void AddLayerProbes(const Args& args, const Replay& replay, Report* report) {
  ProbeCompile(args, report);
  const int64_t dropped = ProbeSolvers(args, report);
  ProbeStorage(args, replay, report);
  report->Add("obs.spans_dropped",
              static_cast<double>(dropped + replay.reads.trace.spans_dropped),
              "count");
}

}  // namespace perfbench
