// rpqres — graphdb/label_index: the per-(label, node) fact adjacency.
//
// A LabelIndex is the only adjacency in the system: GraphDb is a plain
// fact table, and every solver, the RPQ evaluator and the gadgets reach
// the facts at a node through an index. The paper's polynomial
// algorithms all read the database one (label, node) pair at a time —
// the product network of Thm 3.13, the chain wiring of Prp 7.6 and the
// κ/z split network of Prp 7.9 — which is exactly what FactsFrom /
// FactsInto answer, without touching a fact of any other label.
//
// An index is built once per immutable database snapshot (the DbRegistry
// does this at Register time and when it restores a segment) and shared
// by every query against that snapshot. Solver entry points take
// an optional `const LabelIndex*`; a null pointer makes the entry point
// build LabelIndex(db) once, for that call.
//
// Per-label entries are copy-on-write (shared_ptr-to-const): a delta
// commit builds the next version's index *incrementally* — labels the
// delta never touched share the parent's entry, only the touched labels'
// CSR spans are rebuilt — so commit-time indexing scales with the facts
// of the touched labels, not with the database. Dead (tombstoned) facts
// of a versioned GraphDb never enter an index.

#ifndef RPQRES_GRAPHDB_LABEL_INDEX_H_
#define RPQRES_GRAPHDB_LABEL_INDEX_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graphdb/graph_db.h"

namespace rpqres {

/// Immutable per-label fact lists for one database. Fact ids within a
/// label are ascending. The index holds fact *ids*, not copies; it is
/// only meaningful alongside the GraphDb it was built from (the
/// DbRegistry snapshot keeps the two paired).
class LabelIndex {
 public:
  /// An empty index: every lookup returns no facts.
  LabelIndex() { slot_.fill(-1); }
  /// Full build over the live facts of `db`.
  explicit LabelIndex(const GraphDb& db);
  /// Incremental build for a delta commit: `db` is the new version,
  /// `parent` the index of the version the delta was applied to, and
  /// `touched_labels` the labels whose fact set changed (facts added or
  /// removed; multiplicity changes do not touch an index). Facts with ids
  /// >= `first_new_fact` are the delta's additions. Untouched labels
  /// share the parent's entry by pointer.
  LabelIndex(const GraphDb& db, const LabelIndex& parent,
             const std::vector<char>& touched_labels, FactId first_new_fact);

  /// Fact ids carrying `label`, ascending; empty when absent.
  std::span<const FactId> Facts(char label) const {
    int16_t slot = slot_[static_cast<unsigned char>(label)];
    return slot < 0 ? std::span<const FactId>() : per_label_[slot]->facts;
  }

  /// Fact ids carrying `label` whose source is `node`, ascending; empty
  /// when absent. Nodes past the entry's build horizon (added by a later
  /// delta that never touched this label) have no facts by construction.
  std::span<const FactId> FactsFrom(char label, NodeId node) const {
    int16_t slot = slot_[static_cast<unsigned char>(label)];
    if (slot < 0) return {};
    const PerLabel& entry = *per_label_[slot];
    if (node + 1 >= static_cast<NodeId>(entry.source_offset.size())) {
      return {};
    }
    return std::span<const FactId>(entry.by_source)
        .subspan(entry.source_offset[node],
                 entry.source_offset[node + 1] - entry.source_offset[node]);
  }

  /// Fact ids carrying `label` whose target is `node`, ascending; empty
  /// when absent.
  std::span<const FactId> FactsInto(char label, NodeId node) const {
    int16_t slot = slot_[static_cast<unsigned char>(label)];
    if (slot < 0) return {};
    const PerLabel& entry = *per_label_[slot];
    if (node + 1 >= static_cast<NodeId>(entry.target_offset.size())) {
      return {};
    }
    return std::span<const FactId>(entry.by_target)
        .subspan(entry.target_offset[node],
                 entry.target_offset[node + 1] - entry.target_offset[node]);
  }

  /// Labels present, sorted.
  const std::vector<char>& labels() const { return labels_; }

  /// Live facts indexed.
  int64_t num_facts() const { return num_facts_; }

  /// How many labels of this index share their entry with the parent it
  /// was incrementally built from (0 for full builds) — telemetry for the
  /// delta-commit path.
  int shared_labels() const { return shared_labels_; }

 private:
  struct PerLabel {
    std::vector<FactId> facts;  ///< ascending live fact ids, this label
    /// CSR over source nodes: facts of node v are
    /// by_source[source_offset[v] .. source_offset[v+1]).
    std::vector<FactId> by_source;
    std::vector<int32_t> source_offset;  ///< size num_nodes + 1 at build
    /// CSR over target nodes, same layout.
    std::vector<FactId> by_target;
    std::vector<int32_t> target_offset;
  };

  /// Builds one label's entry from its ascending live fact ids.
  static std::shared_ptr<const PerLabel> BuildEntry(const GraphDb& db,
                                                    std::vector<FactId> facts);
  void InsertEntry(char label, std::shared_ptr<const PerLabel> entry);

  std::array<int16_t, 256> slot_;  ///< label -> per_label_ index, -1 absent
  std::vector<std::shared_ptr<const PerLabel>> per_label_;
  std::vector<char> labels_;
  int64_t num_facts_ = 0;
  int shared_labels_ = 0;
};

}  // namespace rpqres

#endif  // RPQRES_GRAPHDB_LABEL_INDEX_H_
