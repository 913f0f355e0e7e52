// rpqres — flow/solver_scratch: reusable per-thread solver workspace.
//
// Every flow-backed resilience solve needs the same transient state: the
// residual graph, the fact↔edge mapping, flat per-letter transition
// tables, ε-adjacency over automaton states, (for the Thm 3.13
// product) reachability marks plus dense vertex ids over (node, state)
// pairs, and (for Prp 7.9) per-node split costs, middle vertices and cut
// marks. A SolverScratch owns all of it in grow-only buffers, so a warm
// scratch makes steady-state serving allocation-free per solve.
//
// Ownership model: the engine's worker pool holds one scratch per thread
// (SolverScratch::ThreadLocal()); solver entry points accept an optional
// SolverScratch* and fall back to the thread-local instance, so direct
// solver calls reuse buffers too. A scratch is single-threaded state —
// never share one instance across concurrent solves.

#ifndef RPQRES_FLOW_SOLVER_SCRATCH_H_
#define RPQRES_FLOW_SOLVER_SCRATCH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "flow/residual_graph.h"

namespace rpqres {

namespace obs {
class TraceContext;
}  // namespace obs

/// A dense int64-keyed set with O(1) amortized clear, used for product
/// vertex marks over the (node, state) space: clearing bumps an epoch
/// instead of touching the (possibly large, mostly dead) key range.
class StampedSet {
 public:
  /// Prepares the set for keys in [0, size); O(1) except when growing or
  /// on epoch wrap-around (every 2^32 resets).
  void Reset(int64_t size) {
    if (static_cast<int64_t>(stamp_.size()) < size) stamp_.resize(size, 0);
    if (++epoch_ == 0) {  // wrapped: all stale stamps become "current"
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  bool Contains(int64_t key) const { return stamp_[key] == epoch_; }
  /// Inserts `key`; false iff it was already present.
  bool TryInsert(int64_t key) {
    if (stamp_[key] == epoch_) return false;
    stamp_[key] = epoch_;
    return true;
  }
  size_t capacity_bytes() const {
    return stamp_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

/// A dense int64-keyed int32 map with the same O(1) amortized clear.
/// Stamp and value share one 8-byte slot, so a probe touches one cache
/// line.
class StampedIdMap {
 public:
  void Reset(int64_t size) {
    if (static_cast<int64_t>(slots_.size()) < size) {
      slots_.resize(size, Slot{0, 0});
    }
    if (++epoch_ == 0) {
      std::fill(slots_.begin(), slots_.end(), Slot{0, 0});
      epoch_ = 1;
    }
  }
  bool Contains(int64_t key) const { return slots_[key].stamp == epoch_; }
  /// The mapped value, or -1 when absent.
  int32_t Get(int64_t key) const {
    const Slot& slot = slots_[key];
    return slot.stamp == epoch_ ? slot.value : -1;
  }
  void Set(int64_t key, int32_t value) {
    slots_[key] = Slot{epoch_, value};
  }
  size_t capacity_bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    uint32_t stamp;
    int32_t value;
  };
  std::vector<Slot> slots_;
  uint32_t epoch_ = 0;
};

/// The arena. Members are deliberately public: this is internal plumbing
/// shared by the solvers in src/resilience/, not an abstraction boundary.
/// All buffers are grow-only; total_capacity_bytes() is the telemetry the
/// scratch-reuse tests pin down.
class SolverScratch {
 public:
  SolverScratch() = default;
  SolverScratch(const SolverScratch&) = delete;
  SolverScratch& operator=(const SolverScratch&) = delete;

  /// The calling thread's scratch (engine workers reuse it across
  /// requests; direct solver calls share it per thread).
  static SolverScratch& ThreadLocal();

  /// Bytes reserved across every buffer (including the residual graph).
  size_t total_capacity_bytes() const;

  // --- flow core -----------------------------------------------------------
  ResidualGraph graph;
  /// Edge id (AddEdge order) -> fact id, for cut -> contingency mapping.
  /// Fact edges are always staged first, so edge id == index.
  std::vector<int32_t> fact_of_edge;

  // --- product pruning state (Thm 3.13) ------------------------------------
  /// Reachable / co-reachable marks over dense (node, state) keys.
  StampedSet reach_fwd, reach_bwd;
  /// Dense (node, state) key -> network vertex id for live vertices.
  StampedIdMap product_id;
  /// Forward BFS queue of packed (node << 32 | state) codes; after the
  /// sweep, the list of all reached pairs.
  std::vector<int64_t> fwd_visited;
  /// Backward BFS queue (same packing).
  std::vector<int64_t> bwd_queue;
  /// Live (forward- and co-reachable) pairs with a vertex of their own,
  /// i.e. not contracted into a terminal, network-id order.
  std::vector<int64_t> live_list;
  /// Facts discovered by the forward sweep whose edge may be staged (the
  /// tail vertex is reachable); each relevant fact appears at most once.
  std::vector<int32_t> candidate_facts;

  // --- BCL solver state (Prp 7.6) ------------------------------------------
  /// Fact id -> start/end network vertex (the source or the target for an
  /// end the terminals force), -1 for irrelevant facts.
  std::vector<int32_t> start_of, end_of;

  // --- one-dangling split state (Prp 7.9, LetterSplit) ---------------------
  /// Per node: z-edge capacity, the split letter's cost at the node minus
  /// the fresh letter's.
  std::vector<Capacity> split_z;
  /// Per node: the node's middle vertex, -1 when none was staged.
  std::vector<int32_t> middle_of;
  /// Nodes with a middle vertex, in z-edge staging order.
  std::vector<int32_t> middle_nodes;
  /// Per node: 1 iff the node's z-edge is in the minimum cut.
  std::vector<uint8_t> z_cut;

  /// Test-only knob: emit the full (unpruned, uncontracted) product
  /// network with its terminal hookups. Both constructions must produce
  /// identical cut values and contingency sets — the parity suite flips
  /// this to prove it.
  bool disable_product_pruning = false;

  // --- observability -------------------------------------------------------
  /// Per-request trace recorder, set by the engine for the duration of
  /// one solve (null when tracing is off or the solver is called
  /// directly). Solvers bracket their phases with obs::ScopedSpan, which
  /// tolerates null, so instrumentation costs nothing when disabled. The
  /// context is stack-allocated fixed-size storage — recording spans
  /// never allocates, preserving this scratch's zero-allocation
  /// guarantee.
  obs::TraceContext* trace = nullptr;
};

}  // namespace rpqres

#endif  // RPQRES_FLOW_SOLVER_SCRATCH_H_
