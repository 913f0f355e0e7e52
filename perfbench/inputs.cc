#include "inputs.h"

#include <unordered_set>
#include <utility>

#include "common.h"
#include "graphdb/generators.h"
#include "graphdb/label_index.h"
#include "util/rng.h"
#include "workload/query_generator.h"

namespace perfbench {

using rpqres::DbHandle;
using rpqres::GraphDb;
using rpqres::Rng;
using rpqres::storage::JournalOp;
using rpqres::workload::TrafficOp;

const std::vector<MatrixQuery>& MatrixQueries() {
  static const std::vector<MatrixQuery> queries = {
      {"local", "ax*b", {'a', 'x', 'b'}},
      {"bcl", "ab|bc", {'a', 'b', 'c'}},
      {"onedangling", "abc|be", {'a', 'b', 'c', 'e'}},
      {"exact", "ab|bc|ca", {'a', 'b', 'c'}},
  };
  return queries;
}

std::vector<int> MatrixSizes(bool tiny) {
  return tiny ? std::vector<int>{50, 150, 450}
              : std::vector<int>{200, 2000, 20000};
}

std::vector<std::string> MatrixSizeLabels() { return {"n200", "n2k", "n20k"}; }

GraphDb MatrixGraph(uint64_t seed, int query, int size_index, int variant,
                    bool tiny) {
  const int nodes = MatrixSizes(tiny)[size_index];
  std::vector<char> letters = MatrixQueries()[query].letters;
  letters.push_back(kNoiseLetter);
  Rng rng(MixSeed(seed, 0x5000 + 256 * static_cast<uint64_t>(variant) +
                            16 * static_cast<uint64_t>(query) +
                            static_cast<uint64_t>(size_index)));
  return rpqres::RandomGraphDb(&rng, nodes, 3 * nodes, letters,
                               /*max_multiplicity=*/4);
}

GraphDb SmallGraph(uint64_t seed, const std::vector<char>& letters) {
  Rng rng(seed);
  return rpqres::RandomGraphDb(&rng, 8, 24, letters, /*max_multiplicity=*/4);
}

GraphDb ExactGraph(uint64_t seed, int index) {
  std::vector<char> letters = MatrixQueries()[kExactQuery].letters;
  letters.push_back(kNoiseLetter);
  return SmallGraph(MixSeed(seed, 0x6000 + static_cast<uint64_t>(index)),
                    letters);
}

std::vector<std::string> RegexPool(uint64_t seed, int count) {
  Rng rng(MixSeed(seed, 0xc01d));
  std::vector<std::string> pool;
  std::unordered_set<std::string> seen;
  const auto& classes = rpqres::workload::kAllQueryClasses;
  for (int i = 0; static_cast<int>(pool.size()) < count && i < 20 * count;
       ++i) {
    rpqres::Result<rpqres::workload::GeneratedQuery> query =
        rpqres::workload::GenerateQuery(&rng, classes[i % classes.size()],
                                        /*max_attempts=*/64,
                                        kColdRegexWordBound);
    if (query.ok() && seen.insert(query->regex).second) {
      pool.push_back(query->regex);
    }
  }
  return pool;
}

rpqres::workload::TrafficOptions ServeTrafficOptions(bool tiny) {
  rpqres::workload::TrafficOptions options;
  options.num_tenants = 4;
  options.num_lineages = tiny ? 8 : 32;
  options.hot_lineages = 8;
  options.commit_per_mille = 100;
  options.db_num_nodes = tiny ? 40 : 80;
  options.db_num_facts = tiny ? 120 : 320;
  return options;
}

StagedCommit ApplyCommitStaged(const TrafficOp& op,
                               rpqres::DbRegistry* registry) {
  using rpqres::workload::kNoiseLabels;
  StagedCommit out;
  const int64_t compactions_before = registry->stats().compactions;
  const Clock::time_point start = Clock::now();
  rpqres::Result<DbHandle> latest = registry->Resolve(op.db_ref);
  if (!latest.ok()) {
    out.status = latest.status();
    return out;
  }
  rpqres::DeltaBatch delta = registry->BeginDelta(*latest);
  Rng rng(op.op_seed);

  JournalOp begin;
  begin.type = JournalOp::Type::kBegin;
  begin.version = latest->version();
  out.group.push_back(begin);

  const rpqres::NodeId fresh = delta.AddNode();
  JournalOp add_node;
  add_node.type = JournalOp::Type::kAddNode;
  out.group.push_back(add_node);
  const int additions = 1 + static_cast<int>(rng.NextBelow(3));
  const int num_nodes = latest->db().num_nodes();
  for (int i = 0; i < additions; ++i) {
    const rpqres::NodeId source = static_cast<rpqres::NodeId>(
        rng.NextBelow(static_cast<uint64_t>(num_nodes)));
    const char label = kNoiseLabels[rng.NextBelow(2)];
    rpqres::Result<rpqres::FactId> added = delta.AddFact(source, label, fresh);
    if (!added.ok()) {
      out.status = added.status();
      return out;
    }
    JournalOp fact;
    fact.type = JournalOp::Type::kAddFact;
    fact.source = source;
    fact.label = label;
    fact.target = fresh;
    out.group.push_back(fact);
  }
  if (rng.NextChance(3, 10)) {
    for (char label : kNoiseLabels) {
      const std::span<const rpqres::FactId> facts =
          latest->label_index()->Facts(label);
      if (facts.empty()) continue;
      const rpqres::Fact& victim =
          latest->db().fact(facts[rng.NextBelow(facts.size())]);
      out.status = delta.RemoveFact(victim.source, victim.label, victim.target);
      if (!out.status.ok()) return out;
      JournalOp removal;
      removal.type = JournalOp::Type::kRemoveFact;
      removal.source = victim.source;
      removal.label = victim.label;
      removal.target = victim.target;
      out.group.push_back(removal);
      break;
    }
  }
  const Clock::time_point staged = Clock::now();
  rpqres::Result<DbHandle> committed = delta.Commit();
  const Clock::time_point done = Clock::now();
  out.stage_us = MicrosBetween(start, staged);
  out.commit_us = MicrosBetween(staged, done);
  if (!committed.ok()) {
    out.status = committed.status();
    return out;
  }
  out.compacted = registry->stats().compactions > compactions_before;
  out.group[1].name = committed->db().node_name(fresh);
  JournalOp commit;
  commit.type = JournalOp::Type::kCommit;
  commit.version = committed->version();
  commit.snapshot_id = committed->id();
  out.group.push_back(commit);
  return out;
}

std::vector<TrafficOp> TrafficCommits(
    uint64_t seed, const rpqres::workload::TrafficOptions& options,
    int count) {
  rpqres::workload::TrafficTrace trace(seed, options);
  std::vector<TrafficOp> commits;
  while (static_cast<int>(commits.size()) < count) {
    for (TrafficOp& op : trace.NextOps(1024)) {
      if (op.kind == TrafficOp::Kind::kCommit &&
          static_cast<int>(commits.size()) < count) {
        commits.push_back(std::move(op));
      }
    }
  }
  return commits;
}

}  // namespace perfbench
