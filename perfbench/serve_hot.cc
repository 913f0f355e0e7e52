// serve_hot: a TrafficTrace fleet on one persistent shard with two
// workers and a result cache of a few thousand entries. Two synchronous
// readers replay the trace's reads; one writer applies its commits in
// trace order, each once every read before it has completed, so the
// storage state after k commits is the same in every run of a seed.

#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "engine/compiled_query.h"
#include "workload.h"

namespace perfbench {
namespace {

using rpqres::Semantics;
using rpqres::serve::Router;
using rpqres::serve::ShardedRegistry;
using rpqres::workload::TrafficOp;
using rpqres::workload::TrafficTrace;

// Two readers on two workers, with the writer, leave one of the 4 vCPUs
// free. Three on three, as first sized, kept every vCPU runnable, so
// whenever other tenants of the host took one, read throughput halved and
// p99 quadrupled for minutes: the figures measured the host's scheduler.
constexpr int kReaders = 2;
constexpr int kWorkers = 2;
constexpr size_t kResultCacheEntries = 4096;
// Operations in one pass of the trace; runs wrap around it. Commits of a
// later pass re-apply their mutations to newer versions.
constexpr int kTraceOps = 100000;
constexpr int kWindows = 20;

struct ReadKey {
  std::string regex;
  std::string db_ref;
  Semantics semantics = Semantics::kBag;
  int lineage = 0;
};

struct ReadOp {
  uint16_t tenant = 0;
  uint16_t key = 0;
};

class ServeHot : public Workload {
 public:
  ServeHot(const Args& args, int instance)
      : args_(args),
        dir_(args.workdir + "/serve_hot_" + std::to_string(instance)) {}

  double Setup() override {
    const Clock::time_point start = Clock::now();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    rpqres::EngineOptions engine;
    engine.num_threads = kWorkers;
    engine.result_cache_capacity = kResultCacheEntries;
    rpqres::DbRegistry::Options registry;
    registry.storage_dir = dir_;
    shards_ = std::make_unique<ShardedRegistry>(1, engine, registry);
    router_ = std::make_unique<Router>(shards_.get());

    const rpqres::workload::TrafficOptions options =
        ServeTrafficOptions(args_.tiny);
    TrafficTrace trace(args_.seed, options);
    for (int i = 0; i < trace.num_lineages(); ++i) {
      shards_->Register(trace.MakeDb(i), trace.lineage_name(i));
    }
    const std::vector<std::string>& pool = rpqres::workload::TrafficReadPool();
    std::map<std::tuple<int, std::string, Semantics>, uint16_t> key_of;
    for (int lineage = 0; lineage < trace.num_lineages(); ++lineage) {
      for (int j = 0; j < options.queries_per_lineage; ++j) {
        for (Semantics semantics : {Semantics::kBag, Semantics::kSet}) {
          ReadKey key{pool[(lineage * options.queries_per_lineage + j) %
                           pool.size()],
                      trace.lineage_name(lineage) + "@latest", semantics,
                      lineage};
          key_of.emplace(std::make_tuple(lineage, key.regex, semantics),
                         static_cast<uint16_t>(keys_.size()));
          keys_.push_back(std::move(key));
        }
      }
    }
    for (int t = 0; t < options.num_tenants; ++t) {
      tenants_.push_back("tenant" + std::to_string(t));
    }
    const int ops = args_.tiny ? kTraceOps / 20 : kTraceOps;
    for (TrafficOp& op : trace.NextOps(ops)) {
      if (op.kind == TrafficOp::Kind::kCommit) {
        reads_before_commit_.push_back(static_cast<int64_t>(reads_.size()));
        commits_.push_back(std::move(op));
      } else {
        reads_.push_back(
            {static_cast<uint16_t>(op.tenant),
             key_of.at(std::make_tuple(op.lineage, op.regex, op.semantics))});
      }
    }
    // Warm-up: every read key once, so plans are compiled and the result
    // cache holds every key at version 1.
    ClientStats warm(keys_.size());
    for (size_t k = 0; k < keys_.size(); ++k) {
      RouterRead(*router_, "warmup", keys_[k].regex, keys_[k].db_ref,
                 keys_[k].semantics, k, false, &warm);
    }
    return MicrosBetween(start, Clock::now()) / 1e6;
  }

  RunTiming Run(double seconds, bool traced, ClientStats* reads,
                CommitStats* commits) override {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
      std::lock_guard<std::mutex> lock(mu_);
      readers_done_ = false;
      StampDueLocked(start);
    }
    std::vector<ClientStats> reader_stats(kReaders, ClientStats(keys_.size()));
    std::vector<Clock::time_point> reader_end(kReaders, start);
    CommitStats writer_stats;
    std::thread writer([&] { WriterLoop(traced, &writer_stats); });
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        reader_stats[r].keep_witnesses = reads->keep_witnesses;
        while (Clock::now() < deadline) {
          reader_stats[r].window = TimeWindow(start, seconds, kWindows);
          const int64_t index = next_read_.fetch_add(1);
          const ReadOp& op = reads_[index % reads_.size()];
          const ReadKey& key = keys_[op.key];
          RouterRead(*router_, tenants_[op.tenant], key.regex, key.db_ref,
                     key.semantics, op.key, traced, &reader_stats[r]);
          MarkDone(index);
        }
        reader_end[r] = Clock::now();
      });
    }
    for (std::thread& t : readers) t.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      readers_done_ = true;
    }
    cv_.notify_all();
    writer.join();
    for (const ClientStats& s : reader_stats) reads->Merge(s);
    commits->Merge(writer_stats);
    RunTiming timing;
    timing.start = start;
    timing.end = start;
    for (const Clock::time_point& t : reader_end) {
      timing.end = std::max(timing.end, t);
    }
    return timing;
  }

  Verification Verify(const ClientStats& /*reads*/, bool witnesses) override {
    // Commits touch only the noise labels no read query mentions, so each
    // key's answer is the same at every version: version 1 is the
    // reference.
    Verification v;
    const TrafficTrace trace(args_.seed, ServeTrafficOptions(args_.tiny));
    std::map<std::pair<std::string, Semantics>,
             std::shared_ptr<const rpqres::CompiledQuery>>
        plans;
    for (size_t k = 0; k < keys_.size(); ++k) {
      const ReadKey& key = keys_[k];
      auto& plan = plans[{key.regex, key.semantics}];
      if (plan == nullptr) {
        auto compiled = rpqres::CompileQuery(key.regex, key.semantics);
        if (!compiled.ok()) {
          v.problems.push_back("cannot compile " + key.regex);
          v.expected.push_back(-2);
          continue;
        }
        plan = *compiled;
      }
      const rpqres::GraphDb db = trace.MakeDb(key.lineage);
      auto reference = rpqres::ComputeResilienceWithPlan(plan->plan, db,
                                                         key.semantics);
      v.expected.push_back(reference.ok() ? AnswerCode(*reference) : -2);
      if (!reference.ok()) {
        v.problems.push_back("reference solve failed for " + key.db_ref);
      }
      if (witnesses) {
        // Pin the latest version by number so the witness is checked
        // against exactly the database that answered.
        rpqres::Result<rpqres::DbHandle> latest = shards_->Resolve(key.db_ref);
        if (!latest.ok()) {
          v.problems.push_back("cannot resolve " + key.db_ref);
          continue;
        }
        const std::string pinned = trace.lineage_name(key.lineage) + "@" +
                                   std::to_string(latest->version());
        ClientStats one(1);
        one.keep_witnesses = true;
        RouterRead(*router_, "verify", key.regex, pinned, key.semantics, 0,
                   false, &one);
        rpqres::Status ok =
            one.witnesses[0]
                ? rpqres::VerifyResilienceResult(plan->language, latest->db(),
                                                 key.semantics,
                                                 *one.witnesses[0])
                : rpqres::Status::Internal("no answer");
        if (ok.ok() && AnswerCode(*one.witnesses[0]) != v.expected.back()) {
          ok = rpqres::Status::Internal("value differs from the reference");
        }
        if (!ok.ok()) {
          ++v.bad_witnesses;
          v.problems.push_back("witness of " + key.regex + " on " + pinned +
                               ": " + ok.ToString());
        }
      }
    }
    v.checksum = ChecksumOf(v.expected);
    return v;
  }

  double PlanCacheLookupMicros() override {
    std::vector<std::shared_ptr<const rpqres::CompiledQuery>> resident;
    for (const std::string& regex : rpqres::workload::TrafficReadPool()) {
      auto compiled = rpqres::CompileQuery(regex, Semantics::kBag);
      if (compiled.ok()) resident.push_back(*compiled);
    }
    return PlanCacheProbeMicros(resident, rpqres::workload::TrafficReadPool(),
                                Semantics::kBag);
  }

  std::string Release() override {
    router_.reset();
    shards_.reset();
    return dir_;
  }

  // Its readers, workers and writer run at once, so a reference kernel
  // would compete with the program and be slowed by it.
  bool speed_scaled() const override { return false; }
  size_t pairs() const override { return keys_.size(); }
  Router& router() override { return *router_; }
  ShardedRegistry& shards() override { return *shards_; }

 private:
  /// Reads of the whole stream that precede commit `c`.
  int64_t ReadsBefore(int64_t c) const {
    const int64_t pass = c / static_cast<int64_t>(commits_.size());
    return pass * static_cast<int64_t>(reads_.size()) +
           reads_before_commit_[c % commits_.size()];
  }

  /// Stamps every commit whose preceding reads have all completed.
  void StampDueLocked(Clock::time_point now) {
    bool stamped = false;
    while (!commits_.empty() &&
           ReadsBefore(static_cast<int64_t>(due_.size())) <= watermark_) {
      due_.push_back(now);
      stamped = true;
    }
    if (stamped) cv_.notify_one();
  }

  void MarkDone(int64_t index) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    done_[index % done_.size()] = true;
    while (done_[watermark_ % done_.size()]) {
      done_[watermark_ % done_.size()] = false;
      ++watermark_;
    }
    StampDueLocked(now);
  }

  void WriterLoop(bool traced, CommitStats* stats) {
    rpqres::DbRegistry* registry = &shards_->registry(0);
    for (;;) {
      Clock::time_point due;
      int64_t c = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return next_commit_ < static_cast<int64_t>(due_.size()) ||
                 readers_done_;
        });
        if (next_commit_ >= static_cast<int64_t>(due_.size())) return;
        c = next_commit_++;
        due = due_[c];
      }
      CommitAndRetire(commits_[c % commits_.size()], registry, due, traced,
                      stats);
    }
  }

  const Args args_;
  const std::string dir_;
  std::unique_ptr<ShardedRegistry> shards_;
  std::unique_ptr<Router> router_;
  std::vector<ReadKey> keys_;
  std::vector<std::string> tenants_;
  std::vector<ReadOp> reads_;
  std::vector<TrafficOp> commits_;
  std::vector<int64_t> reads_before_commit_;

  std::atomic<int64_t> next_read_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  // Completion flags of reads past the watermark, a ring indexed by read
  // number. Other readers may finish many fast reads while one slow read is
  // outstanding, so the ring covers far more than any such gap.
  std::vector<bool> done_ = std::vector<bool>(1 << 20, false);
  int64_t watermark_ = 0;  // reads [0, watermark_) have completed
  std::vector<Clock::time_point> due_;  // due time of each commit so far
  int64_t next_commit_ = 0;
  bool readers_done_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeServeHot(const Args& args, int instance) {
  return std::make_unique<ServeHot>(args, instance);
}

}  // namespace perfbench
