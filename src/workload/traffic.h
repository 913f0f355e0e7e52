// rpqres — workload/traffic: seeded multi-tenant serving traffic.
//
// The serve-layer counterpart of workload.h: where MakeWorkloadInstance
// derives ONE (query, database) instance from a seed, a TrafficTrace
// derives a whole serving workload — a fleet of named lineages with
// their databases, and an endless stream of tenant-attributed read and
// commit operations — all as a pure function of one uint64 seed. One
// number replays an entire stress run: the same trace drives the
// router tests, the serve stress test, and the scale-out timing gate
// identically at any shard count.
//
// Answer stability across versions is designed in: commit operations
// mutate ONLY facts labeled kNoiseLabels ('m'/'n'), which no query in
// the read pool mentions. RES(Q) over the query alphabet is therefore
// identical at every version of every lineage, so a run's resilience
// checksum is invariant under shard count, commit interleaving, and
// cache hits — that invariance is what lets the tests compare shard
// counts, and router answers against a single-engine replay.

#ifndef RPQRES_WORKLOAD_TRAFFIC_H_
#define RPQRES_WORKLOAD_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/db_registry.h"
#include "graphdb/graph_db.h"
#include "util/rng.h"
#include "util/status.h"

namespace rpqres {
namespace workload {

struct TrafficOptions {
  int num_tenants = 4;
  /// Named lineages in the fleet; lineage i is named "lin<i>". The first
  /// `hot_lineages` of them also receive commit traffic.
  int num_lineages = 12;
  int hot_lineages = 1;
  /// Distinct queries per lineage, drawn from the fixed read pool. The
  /// trace's distinct read keys — num_lineages * queries_per_lineage —
  /// bound the result-cache working set.
  int queries_per_lineage = 4;
  /// Per-mille of operations that target a hot lineage.
  int hot_per_mille = 150;
  /// Per-mille of HOT-lineage operations that are commits (cold
  /// lineages never commit).
  int commit_per_mille = 200;
  /// Database size per lineage (RandomGraphDb over the query alphabet).
  int db_num_nodes = 48;
  int db_num_facts = 160;
  int db_max_multiplicity = 2;
};

/// One operation of the stream.
struct TrafficOp {
  enum class Kind { kRead, kCommit };
  Kind kind = Kind::kRead;
  int tenant = 0;
  int lineage = 0;
  std::string db_ref;  ///< "lin<i>@latest"
  /// Read fields (empty/default for commits).
  std::string regex;
  Semantics semantics = Semantics::kSet;
  /// Seeds the commit's mutation (0 for reads).
  uint64_t op_seed = 0;
};

/// Labels commit mutations are confined to; disjoint from every read
/// query's alphabet by construction.
inline constexpr char kNoiseLabels[2] = {'m', 'n'};

/// The fixed tractable read pool (all PTIME under Figure 1); lineage i's
/// j-th query is ReadPool()[(i * queries_per_lineage + j) % size].
const std::vector<std::string>& TrafficReadPool();

class TrafficTrace {
 public:
  explicit TrafficTrace(uint64_t seed, TrafficOptions options = {});

  uint64_t seed() const { return seed_; }
  const TrafficOptions& options() const { return options_; }

  int num_lineages() const { return options_.num_lineages; }
  const std::string& lineage_name(int lineage) const {
    return names_[lineage];
  }
  bool is_hot(int lineage) const { return lineage < options_.hot_lineages; }
  /// Distinct (lineage, query) read keys the stream draws from.
  int distinct_read_keys() const {
    return options_.num_lineages * options_.queries_per_lineage;
  }

  /// Version-1 database of lineage `lineage`; pure function of
  /// (seed, lineage) — calling it twice gives byte-identical databases,
  /// so a single-engine replay can rebuild the router's fleet.
  GraphDb MakeDb(int lineage) const;

  /// The next `count` operations. Advances the trace's stream state:
  /// consecutive calls continue the stream, a fresh TrafficTrace with
  /// the same seed replays it from the start.
  std::vector<TrafficOp> NextOps(int count);

  /// Applies a commit op against `registry` (which must hold the op's
  /// lineage): resolves "lin<i>@latest", adds a fresh node plus 1–3
  /// noise-labeled facts, occasionally tombstones one earlier noise
  /// fact, and commits. Returns the commit's status (kAborted surfaces
  /// to the caller — single-committer flows never see it, concurrent
  /// committers retry).
  static Status ApplyCommit(const TrafficOp& op, DbRegistry* registry);

 private:
  uint64_t seed_;
  TrafficOptions options_;
  Rng rng_;  ///< stream state (ops only; databases use derived rngs)
  std::vector<std::string> names_;
};

}  // namespace workload
}  // namespace rpqres

#endif  // RPQRES_WORKLOAD_TRAFFIC_H_
