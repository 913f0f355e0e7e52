// cold_regex: one synchronous client, one worker; every read carries a
// regex the 256-entry plan cache no longer holds, so every read compiles
// (parse, minimal DFA, IF(L), Figure 1 classification, plan, RO tables)
// before a small solve on an 8-node graph.

#include <algorithm>
#include <set>
#include <string>

#include "engine/compiled_query.h"
#include "workload.h"

namespace perfbench {
namespace {

using rpqres::Semantics;
using rpqres::serve::Router;
using rpqres::serve::ShardedRegistry;

// Distinct regexes per run, read in a fixed cycle. A regex comes back only
// after kPoolSize - 1 others — several times the engine's 256-entry LRU —
// so it has always been evicted and compiles again. Compile cost varies
// widely between regexes; at 1000 the read median still moved by about 10%
// from seed to seed with the pool's draw. Generating a fresh regex for
// every read of a run (tens of thousands) would cost more set-up than the
// run itself.
constexpr int kPoolSize = 2000;
constexpr int kWarmRegexes = 64;
constexpr int kWindows = 20;

const std::vector<char>& GraphLetters() {
  static const std::vector<char> letters = {'a', 'b', 'c', 'd', 'e', 'f'};
  return letters;
}

class ColdRegex : public Workload {
 public:
  explicit ColdRegex(const Args& args) : args_(args) {}

  double Setup() override {
    const Clock::time_point start = Clock::now();
    rpqres::EngineOptions engine;
    engine.num_threads = 1;
    engine.max_word_length = kColdRegexWordBound;
    shards_ = std::make_unique<ShardedRegistry>(1, engine);
    router_ = std::make_unique<Router>(shards_.get());
    for (int g = 0; g < kSmallGraphs; ++g) {
      const std::string name = "cr_g" + std::to_string(g);
      shards_->Register(
          SmallGraph(MixSeed(args_.seed, 0x8000 + g), GraphLetters()), name);
      graph_refs_.push_back(name + "@latest");
    }
    pool_ = RegexPool(args_.seed, args_.tiny ? 300 : kPoolSize);
    probe_.Setup(shards_.get(), args_.seed, args_.tiny);
    // Warm-up on regexes outside the pool: the worker, its scratch and the
    // compile path are exercised without making any pool regex resident.
    std::vector<std::string> warm = RegexPool(MixSeed(args_.seed, 0x3a3a),
                                              kWarmRegexes);
    const std::set<std::string> in_pool(pool_.begin(), pool_.end());
    ClientStats warm_stats(1);
    for (const std::string& regex : warm) {
      if (in_pool.contains(regex)) continue;
      warm_regexes_.push_back(regex);
      RouterRead(*router_, "warmup", regex, graph_refs_[0], Semantics::kBag,
                 0, false, &warm_stats);
    }
    return MicrosBetween(start, Clock::now()) / 1e6;
  }

  RunTiming Run(double seconds, bool traced, ClientStats* reads,
                CommitStats* commits) override {
    RunTiming timing;
    timing.start = Clock::now();
    const Clock::time_point deadline =
        timing.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    probe_.Start(timing.start);
    while (Clock::now() < deadline) {
      reads->window = TimeWindow(timing.start, seconds, kWindows);
      const size_t p = next_++ % pool_.size();
      RouterRead(*router_, "t0", pool_[p], graph_refs_[p % graph_refs_.size()],
                 Semantics::kBag, p, traced, reads);
      probe_.Poll(traced, commits);
      speed_.Poll(&reads->current().reference_us);
    }
    timing.end = Clock::now();
    return timing;
  }

  Verification Verify(const ClientStats& reads, bool witnesses) override {
    Verification v;
    rpqres::CompileOptions options;
    options.max_word_length = kColdRegexWordBound;
    std::vector<rpqres::DbHandle> graphs;
    for (const std::string& ref : graph_refs_) {
      rpqres::Result<rpqres::DbHandle> db = shards_->Resolve(ref);
      if (!db.ok()) {
        v.problems.push_back("cannot resolve " + ref);
        return v;
      }
      graphs.push_back(*db);
    }
    for (size_t p = 0; p < pool_.size(); ++p) {
      const rpqres::DbHandle& db = graphs[p % graphs.size()];
      auto compiled = rpqres::CompileQuery(pool_[p], Semantics::kBag, options);
      if (!compiled.ok()) {
        v.problems.push_back("cannot compile " + pool_[p]);
        v.expected.push_back(-2);
        continue;
      }
      auto reference = rpqres::ComputeResilienceWithPlan(
          (*compiled)->plan, db.db(), Semantics::kBag, {}, db.label_index());
      if (!reference.ok()) {
        v.problems.push_back("reference solve failed for " + pool_[p]);
        v.expected.push_back(-2);
        continue;
      }
      v.expected.push_back(AnswerCode(*reference));
      if (witnesses && reads.witnesses[p]) {
        rpqres::Status ok = rpqres::VerifyResilienceResult(
            (*compiled)->language, db.db(), Semantics::kBag,
            *reads.witnesses[p]);
        if (!ok.ok()) {
          ++v.bad_witnesses;
          v.problems.push_back("witness of " + pool_[p] + ": " +
                               ok.ToString());
        }
      }
    }
    v.checksum = ChecksumOf(v.expected);
    return v;
  }

  double PlanCacheLookupMicros() override {
    // Misses: the cache holds the warm-up plans; the probes are pool
    // regexes, absent as they are when a cold_regex read arrives.
    rpqres::CompileOptions options;
    options.max_word_length = kColdRegexWordBound;
    std::vector<std::shared_ptr<const rpqres::CompiledQuery>> resident;
    for (const std::string& regex : warm_regexes_) {
      auto compiled = rpqres::CompileQuery(regex, Semantics::kBag, options);
      if (compiled.ok()) resident.push_back(*compiled);
    }
    const std::vector<std::string> probes(
        pool_.begin(), pool_.begin() + std::min<size_t>(pool_.size(), 256));
    return PlanCacheProbeMicros(resident, probes, Semantics::kBag);
  }

  std::string Release() override {
    router_.reset();
    shards_.reset();
    return "";
  }

  bool speed_scaled() const override { return true; }
  size_t pairs() const override { return pool_.size(); }
  Router& router() override { return *router_; }
  ShardedRegistry& shards() override { return *shards_; }

 private:
  const Args args_;
  std::unique_ptr<ShardedRegistry> shards_;
  std::unique_ptr<Router> router_;
  std::vector<std::string> graph_refs_;
  std::vector<std::string> pool_;
  std::vector<std::string> warm_regexes_;
  CommitProbe probe_;
  SpeedReference speed_;
  uint64_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeColdRegex(const Args& args) {
  return std::make_unique<ColdRegex>(args);
}

}  // namespace perfbench
