// perfbench/inputs: every input the benchmark feeds the system, derived
// from the run seed alone — the solve_matrix graphs, the cold_regex regex
// pool, the serve_hot traffic shape — plus the commit helpers the
// workloads share.

#ifndef RPQRES_PERFBENCH_INPUTS_H_
#define RPQRES_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/db_registry.h"
#include "graphdb/graph_db.h"
#include "storage/journal.h"
#include "workload/traffic.h"

namespace perfbench {

/// One query family of solve_matrix: its regex, the letters its graphs are
/// drawn over (the query's own alphabet; kNoiseLetter is added on top).
struct MatrixQuery {
  std::string name;  ///< "local", "bcl", "onedangling", "exact"
  std::string regex;
  std::vector<char> letters;
};

/// local ax*b (Thm 3.13), BCL ab|bc (Prp 7.6), one-dangling abc|be
/// (Prp 7.9), and ab|bc|ca (exact fallback), in that order.
const std::vector<MatrixQuery>& MatrixQueries();
inline constexpr int kExactQuery = 3;
/// A letter no query reads.
inline constexpr char kNoiseLetter = 'z';

/// Node counts of the three graph sizes: 200 / 2k / 20k (tiny: 50/150/450).
std::vector<int> MatrixSizes(bool tiny);
/// Size labels used in metric names: "n200", "n2k", "n20k".
std::vector<std::string> MatrixSizeLabels();

/// Graphs per (query, size) cell at each size. The cost of one solve
/// varies from graph to graph, and more at small sizes; spreading a cell's
/// reads over several graphs keeps one unlucky draw from moving the
/// figures from seed to seed.
inline constexpr int kMatrixGraphs[3] = {8, 4, 1};

/// Graph `variant` of the (query, size) cell: `nodes` nodes, about three
/// facts per node over the query's letters plus the noise letter,
/// multiplicities 1..4.
rpqres::GraphDb MatrixGraph(uint64_t seed, int query, int size_index,
                            int variant, bool tiny);
/// Small graphs of 8 nodes and 24 facts: solve_matrix's exact cell reads
/// kExactGraphs of them (ExactGraph), cold_regex kSmallGraphs. Exact search
/// cost varies a lot from graph to graph, so both read many.
inline constexpr int kSmallGraphs = 16;
inline constexpr int kExactGraphs = 16;
rpqres::GraphDb SmallGraph(uint64_t seed, const std::vector<char>& letters);
rpqres::GraphDb ExactGraph(uint64_t seed, int index);

/// `count` distinct regexes from workload::GenerateQuery, cycling over all
/// five query classes, at classifier word bound 8.
std::vector<std::string> RegexPool(uint64_t seed, int count);
inline constexpr int kColdRegexWordBound = 8;

/// serve_hot's fleet: 32 lineages of 80 nodes / 320 facts (tiny: 8 of
/// 40 / 120), 4 tenants, the six-query PTIME read pool. Commits go to 8
/// hot lineages at half the trace's default rate: with every commit on one
/// lineage at the full rate, that lineage's growth makes each commit dearer
/// until the writer falls behind for good.
rpqres::workload::TrafficOptions ServeTrafficOptions(bool tiny);

/// One commit applied by ApplyCommitStaged.
struct StagedCommit {
  rpqres::Status status;
  double stage_us = 0;   ///< Resolve + BeginDelta + the ops
  double commit_us = 0;  ///< DeltaBatch::Commit
  bool compacted = false;
  /// The journal group the commit amounts to (Begin .. Commit).
  std::vector<rpqres::storage::JournalOp> group;
};

/// Applies a traffic commit exactly as workload::TrafficTrace::ApplyCommit
/// does — same draws, same mutations, same resulting version — but times
/// the staging apart from DeltaBatch::Commit. Keep the two in step.
StagedCommit ApplyCommitStaged(const rpqres::workload::TrafficOp& op,
                               rpqres::DbRegistry* registry);

/// The first `count` commit operations of the traffic trace `seed` over
/// `options`.
std::vector<rpqres::workload::TrafficOp> TrafficCommits(
    uint64_t seed, const rpqres::workload::TrafficOptions& options,
    int count);

}  // namespace perfbench

#endif  // RPQRES_PERFBENCH_INPUTS_H_
