// rpqres — graphdb/graph_db: graph databases (Section 2).
//
// A graph database D ⊆ V × Σ × V with single-character edge labels. Bag
// semantics attaches a positive int64 multiplicity to each fact (the
// deletion cost); set semantics is the special case where solvers treat
// every fact as cost 1 (paper, Section 2: RES_set reduces to RES_bag with
// unit multiplicities).
//
// GraphDb is a fact table: nodes, facts, costs, tombstones and key
// lookup. It keeps no adjacency; code that walks the graph reads a
// LabelIndex (graphdb/label_index.h), the one per-(label, node) CSR of
// the system, built once per snapshot.
//
// One storage form plus the overlay:
//
//  * Flat databases — dense node/fact arrays on the heap, built by
//    AddNode/AddFact. Generators, ParseGraphDb, Compact and the segment
//    reader (src/storage) all build them this one way.
//  * Versioned overlays (DbRegistry v3 delta commits) — an immutable
//    shared *base* (a flat GraphDb held by shared_ptr) plus a private
//    overlay: appended nodes/facts, a tombstone bitmap over the combined
//    id space, and multiplicity overrides for base facts. Building an
//    overlay copies O(|overlay|) state, never the base, which is what
//    makes a delta commit scale with the delta.
//
// Key lookup (FindFact, and AddFact's duplicate merge) goes through one
// flat open-addressed table of the fact ids a database stores itself;
// an overlay falls through to its base's table.
//
// Fact ids stay dense over [0, num_facts()) in both forms; in an overlay,
// tombstoned ids are *dead* — IsLive(id) is false and the id never
// appears in a LabelIndex, a solver network, or a serialization. Code
// that indexes storage by fact id (cost arrays, removal masks) keeps
// working unchanged; code that *enumerates* facts must either go through
// a LabelIndex or guard with IsLive.

#ifndef RPQRES_GRAPHDB_GRAPH_DB_H_
#define RPQRES_GRAPHDB_GRAPH_DB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flow/capacity.h"
#include "util/status.h"

namespace rpqres {

using NodeId = int32_t;
using FactId = int32_t;

/// Whether fact multiplicities count as deletion costs (bag) or every fact
/// costs 1 (set).
enum class Semantics { kSet, kBag };

/// A fact v --label--> v'.
struct Fact {
  NodeId source = 0;
  char label = '\0';
  NodeId target = 0;

  bool operator==(const Fact& other) const = default;
};

/// A graph database under set or bag semantics.
///
/// Nodes are dense integers with optional display names. Facts are a set:
/// adding an existing (source, label, target) triple accumulates its
/// multiplicity instead of duplicating the fact.
class GraphDb {
 public:
  GraphDb() = default;

  /// Adds an anonymous node.
  NodeId AddNode();
  /// Adds a named node (names are display-only and need not be unique,
  /// but GetOrAddNode gives name-keyed access).
  NodeId AddNode(const std::string& name);
  /// Returns the node with this name, creating it if absent.
  NodeId GetOrAddNode(const std::string& name);

  /// Adds a fact with the given multiplicity (>= 1); if the fact already
  /// exists (and is live) its multiplicity is increased. Returns the fact
  /// id. On an overlay, bumping a base fact records a multiplicity
  /// override; the fact keeps its id and position. CHECK-fails when the
  /// resulting multiplicity would exceed kMaxMultiplicity: input paths
  /// (ParseGraphDb, DeltaBatch::AddFact, ReadSegment) refuse such facts
  /// with a Status before they get here.
  FactId AddFact(NodeId source, char label, NodeId target,
                 Capacity multiplicity = 1);
  /// Fact id of the *live* (source, label, target), or -1.
  FactId FindFact(NodeId source, char label, NodeId target) const;

  /// Marks a fact as *exogenous*: it can never belong to a contingency set
  /// (the paper's Theorem 2.2 remark — equivalently, deletion cost +∞).
  /// On an overlay only facts added by the overlay may be toggled.
  void SetExogenous(FactId id, bool exogenous = true);
  bool IsExogenous(FactId id) const {
    return id < base_facts_ ? base_->IsExogenous(id)
                            : exogenous_[id - base_facts_];
  }
  /// Number of live exogenous facts.
  int NumExogenous() const;

  int num_nodes() const {
    return base_nodes_ + static_cast<int>(node_names_.size());
  }
  /// Size of the fact id space, dead ids included. Use num_live_facts()
  /// for the logical fact count.
  int num_facts() const {
    return base_facts_ + static_cast<int>(facts_.size());
  }
  int num_live_facts() const { return num_facts() - num_dead_; }
  const Fact& fact(FactId id) const {
    return id < base_facts_ ? base_->fact(id) : facts_[id - base_facts_];
  }
  Capacity multiplicity(FactId id) const {
    if (id >= base_facts_) return multiplicities_[id - base_facts_];
    if (!mult_override_.empty()) {
      Capacity override_value;
      if (LookupMultOverride(id, &override_value)) return override_value;
    }
    return base_->multiplicity(id);
  }
  /// Deletion cost of a fact under the given semantics
  /// (kInfiniteCapacity for exogenous facts).
  Capacity Cost(FactId id, Semantics semantics) const {
    if (IsExogenous(id)) return kInfiniteCapacity;
    return semantics == Semantics::kSet ? 1 : multiplicity(id);
  }
  /// Sum of costs of all live *endogenous* facts (the cost of deleting
  /// everything deletable).
  Capacity TotalCost(Semantics semantics) const;

  const std::string& node_name(NodeId id) const {
    return id < base_nodes_ ? base_->node_names_[id]
                            : node_names_[id - base_nodes_];
  }

  // --- versioned overlays ---------------------------------------------------

  /// True when this database is a copy-on-write overlay over a shared
  /// immutable base.
  bool is_versioned() const { return base_ != nullptr; }
  /// False iff `id` is tombstoned. Flat databases are all-live.
  bool IsLive(FactId id) const { return dead_.empty() || !dead_[id]; }
  /// Facts the overlay added or tombstoned on top of its base — the size
  /// the registry's compaction threshold watches. 0 for flat databases.
  int64_t overlay_size() const {
    if (base_ == nullptr) return 0;
    return static_cast<int64_t>(facts_.size()) + num_dead_;
  }
  /// The base fact-id watermark: ids below it resolve into the shared
  /// base, ids at or above it into the overlay. 0 for flat databases.
  FactId base_fact_watermark() const { return base_facts_; }

  /// Starts a copy-on-write overlay on top of `parent`. When `parent` is
  /// itself an overlay the new database shares the same flat base and
  /// copies the parent's overlay (O(|overlay|)); the base is never
  /// copied. `parent` must outlive nothing — the overlay keeps it alive.
  static GraphDb MakeOverlay(std::shared_ptr<const GraphDb> parent);

  /// Tombstones the live fact (source, label, target). Overlay databases
  /// only; NotFound when no such live fact exists. The id space is
  /// unchanged — the id simply goes dead.
  Status RemoveFact(NodeId source, char label, NodeId target);

  /// A flat materialization: live facts renumbered densely (order
  /// preserved), every node kept. When `old_id_of` is non-null it is
  /// filled so old_id_of[new_id] maps back into this database's id space
  /// (for translating witness contingency sets).
  GraphDb Compact(std::vector<FactId>* old_id_of = nullptr) const;

  // --------------------------------------------------------------------------

  /// Edge labels present among live facts, sorted, deduplicated.
  std::vector<char> Labels() const;

  /// Copy of this database without the given facts (node set unchanged).
  /// Flat databases only; an overlay should Compact() first.
  GraphDb RemoveFacts(const std::vector<FactId>& fact_ids) const;

  /// Copy with every edge reversed (the database mirror of Prp 6.3). Fact
  /// ids are preserved: fact i of the mirror is fact i reversed. Flat
  /// databases only.
  GraphDb MirrorDb() const;

  /// Human-readable listing ("u -a-> v [x3]").
  std::string ToString() const;

 private:
  bool LookupMultOverride(FactId id, Capacity* value) const;
  /// The key_slots_ slot holding the live own fact (source, label,
  /// target), or the empty slot that ends its probe chain. key_slots_
  /// must not be empty.
  size_t ProbeKey(NodeId source, char label, NodeId target) const;
  /// Rebuilds key_slots_ over the live own facts alone, at most a quarter
  /// full, so that the next insertions find room.
  void RegrowKeySlots();

  // Flat storage — for an overlay these hold the overlay's own nodes and
  // facts only; ids are offset by base_nodes_ / base_facts_.
  std::vector<std::string> node_names_;
  std::vector<Fact> facts_;
  std::vector<Capacity> multiplicities_;
  std::vector<bool> exogenous_;
  std::map<std::string, NodeId> nodes_by_name_;
  /// Key table over the own facts: open addressing with linear probing,
  /// a power-of-two size, -1 for an empty slot. A slot may hold a dead
  /// id (RemoveFact erases nothing); lookups skip those, and a regrow
  /// drops them. Regrown once half the slots are used.
  std::vector<FactId> key_slots_;
  int32_t key_slots_used_ = 0;

  // Overlay state (empty for flat databases).
  std::shared_ptr<const GraphDb> base_;  // flat; shared between versions
  int32_t base_nodes_ = 0;
  int32_t base_facts_ = 0;
  int32_t num_dead_ = 0;
  /// Tombstone bitmap over [0, num_facts()); allocated on first removal.
  std::vector<uint8_t> dead_;
  /// Multiplicity overrides for base facts (AddFact bumps), sorted by id.
  std::vector<std::pair<FactId, Capacity>> mult_override_;
};

}  // namespace rpqres

#endif  // RPQRES_GRAPHDB_GRAPH_DB_H_
