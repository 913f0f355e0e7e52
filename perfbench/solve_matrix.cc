// solve_matrix: one synchronous client, one shard with one worker, result
// cache off — every read runs a solver. Local, BCL and one-dangling
// queries over random graphs of three sizes, plus the exact fallback on
// 8-node graphs; reads are weighted so each (query, size) cell takes about
// the same share of run time.

#include <algorithm>
#include <string>
#include <utility>

#include "engine/compiled_query.h"
#include "engine/plan_cache.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using rpqres::Semantics;
using rpqres::serve::Router;
using rpqres::serve::ShardedRegistry;

// Reads of each cell per round. A round runs them in a seeded order. The
// counts are fixed — measured once at the commit that introduced the
// benchmark, so each cell took about 65 ms of a round on a 4-core VM — and
// never re-derived at run time: a later solver speed-up must show as a
// shorter round, not as a re-weighted mix.
constexpr int kRoundReads[3][3] = {
    {455, 36, 2},  // local ax*b at 200 / 2k / 20k nodes
    {330, 51, 4},  // BCL ab|bc
    {98, 13, 1},   // one-dangling abc|be
};
// ab|bc|ca, spread evenly over the 8-node graphs: exact search cost varies
// a lot from graph to graph, so the cell averages over many of them.
constexpr int kExactRoundReads = 160;

struct Pair {
  std::string db_ref;
  int query = 0;
  int weight = 0;
};

class SolveMatrix : public Workload {
 public:
  explicit SolveMatrix(const Args& args) : args_(args) {}

  double Setup() override {
    const Clock::time_point start = Clock::now();
    rpqres::EngineOptions engine;
    engine.num_threads = 1;
    shards_ = std::make_unique<ShardedRegistry>(1, engine);
    router_ = std::make_unique<Router>(shards_.get());
    const std::vector<MatrixQuery>& queries = MatrixQueries();
    for (int q = 0; q < kExactQuery; ++q) {
      for (int s = 0; s < 3; ++s) {
        // The cell's reads, dealt over its graphs as evenly as they go.
        const int graphs = kMatrixGraphs[s];
        for (int v = 0; v < graphs; ++v) {
          const std::string name = "sm_" + queries[q].name + "_" +
                                   MatrixSizeLabels()[s] + "_" +
                                   std::to_string(v);
          shards_->Register(MatrixGraph(args_.seed, q, s, v, args_.tiny),
                            name);
          const int reads = kRoundReads[q][s] / graphs +
                            (v < kRoundReads[q][s] % graphs ? 1 : 0);
          pairs_.push_back({name + "@latest", q, args_.tiny ? 1 : reads});
        }
      }
    }
    for (int g = 0; g < kExactGraphs; ++g) {
      const std::string name = "sm_exact_n8_" + std::to_string(g);
      shards_->Register(ExactGraph(args_.seed, g), name);
      pairs_.push_back({name + "@latest", kExactQuery,
                        args_.tiny ? 1 : kExactRoundReads / kExactGraphs});
    }
    probe_.Setup(shards_.get(), args_.seed, args_.tiny);
    // Warm-up: every pair once, so plans are compiled and the worker's
    // solver scratch has grown to the largest graph.
    ClientStats warm(pairs_.size());
    for (size_t p = 0; p < pairs_.size(); ++p) {
      RouterRead(*router_, "warmup", queries[pairs_[p].query].regex,
                 pairs_[p].db_ref, Semantics::kBag, p, false, &warm);
    }
    return MicrosBetween(start, Clock::now()) / 1e6;
  }

  RunTiming Run(double seconds, bool traced, ClientStats* reads,
                CommitStats* commits) override {
    const std::vector<MatrixQuery>& queries = MatrixQueries();
    RunTiming timing;
    timing.start = Clock::now();
    const Clock::time_point deadline =
        timing.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    probe_.Start(timing.start);
    // Whole rounds only, so every run reads the cells in the same mix; each
    // round is one measurement window.
    reads->window = 0;
    do {
      for (size_t p : RoundOrder(round_++)) {
        RouterRead(*router_, "t0", queries[pairs_[p].query].regex,
                   pairs_[p].db_ref, Semantics::kBag, p, traced, reads);
        probe_.Poll(traced, commits);
        speed_.Poll(&reads->current().reference_us);
      }
      ++reads->window;
      timing.end = Clock::now();
    } while (timing.end < deadline);
    return timing;
  }

  Verification Verify(const ClientStats& reads, bool witnesses) override {
    Verification v;
    const std::vector<MatrixQuery>& queries = MatrixQueries();
    for (size_t p = 0; p < pairs_.size(); ++p) {
      const std::string& regex = queries[pairs_[p].query].regex;
      auto compiled = rpqres::CompileQuery(regex, Semantics::kBag);
      rpqres::Result<rpqres::DbHandle> db = shards_->Resolve(pairs_[p].db_ref);
      if (!compiled.ok() || !db.ok()) {
        v.problems.push_back("cannot build the reference for " +
                             pairs_[p].db_ref);
        v.expected.push_back(-2);
        continue;
      }
      auto reference = rpqres::ComputeResilienceWithPlan(
          (*compiled)->plan, db->db(), Semantics::kBag, {},
          db->label_index());
      if (!reference.ok()) {
        v.problems.push_back("reference solve failed for " + pairs_[p].db_ref);
        v.expected.push_back(-2);
        continue;
      }
      v.expected.push_back(AnswerCode(*reference));
      if (witnesses && reads.witnesses[p]) {
        rpqres::Status ok = rpqres::VerifyResilienceResult(
            (*compiled)->language, db->db(), Semantics::kBag,
            *reads.witnesses[p]);
        if (!ok.ok()) {
          ++v.bad_witnesses;
          v.problems.push_back("witness of " + regex + " on " +
                               pairs_[p].db_ref + ": " + ok.ToString());
        }
      }
    }
    v.checksum = ChecksumOf(v.expected);
    return v;
  }

  double PlanCacheLookupMicros() override {
    std::vector<std::shared_ptr<const rpqres::CompiledQuery>> resident;
    std::vector<std::string> probes;
    for (const MatrixQuery& q : MatrixQueries()) {
      auto compiled = rpqres::CompileQuery(q.regex, Semantics::kBag);
      if (compiled.ok()) resident.push_back(*compiled);
      probes.push_back(q.regex);
    }
    return PlanCacheProbeMicros(resident, probes, Semantics::kBag);
  }

  std::string Release() override {
    router_.reset();
    shards_.reset();
    return "";
  }

  bool speed_scaled() const override { return true; }
  size_t pairs() const override { return pairs_.size(); }
  Router& router() override { return *router_; }
  ShardedRegistry& shards() override { return *shards_; }

 private:
  std::vector<size_t> RoundOrder(uint64_t round) const {
    std::vector<size_t> order;
    for (size_t p = 0; p < pairs_.size(); ++p) {
      order.insert(order.end(), pairs_[p].weight, p);
    }
    rpqres::Rng rng(MixSeed(args_.seed, 0x7000 + round));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
    return order;
  }

  const Args args_;
  std::unique_ptr<ShardedRegistry> shards_;
  std::unique_ptr<Router> router_;
  std::vector<Pair> pairs_;
  CommitProbe probe_;
  SpeedReference speed_;
  uint64_t round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSolveMatrix(const Args& args) {
  return std::make_unique<SolveMatrix>(args);
}

}  // namespace perfbench
