// rpqres — flow/residual_graph: the zero-copy flow core.
//
// A ResidualGraph is a flow network N = (V, t_source, t_target, E, c)
// (Section 2, "Networks and cuts") stored the way Dinic wants to consume
// it: solvers stage directed edges with AddEdge, and Solve() lowers them
// into a CSR residual representation (forward + reverse arc per edge,
// paired by index) with one counting-sort pass, runs Dinic, and extracts
// the minimum cut — all inside grow-only buffers owned by this object.
//
// Dinic's levels count residual steps *to the target*: each phase's BFS
// runs backward from the target and stops once it labels the source, and
// the blocking-flow DFS from the source follows only arcs one level
// closer to the target, so it never enters a vertex that cannot reach
// the target. After the last phase one forward residual BFS from the
// source gives the cut side: the vertices every maximum flow leaves
// reachable, i.e. the minimum cut closest to the source.
//
// A ResidualGraph reused across solves (via Reset) reaches a steady
// state where no call allocates at all; the engine keeps one per worker
// thread inside a SolverScratch (flow/solver_scratch.h).
//
// The paper relies on MinCut being in PTIME (max-flow min-cut / Menger)
// and cites near-linear algorithms [21]. This substitutes Dinic for them:
// its O(V²E) worst case is near-linear on the sparse product networks
// built by the resilience reductions.

#ifndef RPQRES_FLOW_RESIDUAL_GRAPH_H_
#define RPQRES_FLOW_RESIDUAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "flow/capacity.h"

namespace rpqres {

namespace obs {
class TraceContext;
}  // namespace obs

/// Result of a min-cut computation. Its span references a buffer owned by
/// the ResidualGraph that produced the view; it stays valid until its next
/// Reset().
struct MinCutView {
  /// True iff every source-target cut uses an infinite-capacity edge.
  bool infinite = false;
  /// Cut cost; meaningful iff !infinite.
  Capacity value = 0;
  /// Ids (in AddEdge order, ascending) of the cut edges: finite-capacity
  /// edges from the source side to the target side of the residual
  /// reachability split, i.e. of the minimum cut closest to the source.
  std::span<const int32_t> cut_edges;
};

/// A single-source single-target flow network plus the Dinic solver state,
/// sharing one set of grow-only buffers. Usage per solve:
///
///   graph.Reset(n);                 // or Reset(0) + AddVertex calls
///   graph.SetSource(s); graph.SetTarget(t);
///   graph.AddEdge(u, v, cap);       // capacity >= 0 or kInfiniteCapacity
///   const MinCutView& cut = graph.Solve();   // at most once per Reset
class ResidualGraph {
 public:
  ResidualGraph() = default;

  /// Drops all vertices and staged edges (buffer capacity is kept).
  void Reset(int num_vertices);
  /// Adds a fresh vertex and returns its id.
  int AddVertex() { return num_vertices_++; }
  /// Stages a directed edge; returns its edge id. Capacity must be >= 0
  /// or kInfiniteCapacity.
  int32_t AddEdge(int from, int to, Capacity capacity);

  void SetSource(int vertex);
  void SetTarget(int vertex);

  int num_vertices() const { return num_vertices_; }
  int64_t num_edges() const { return static_cast<int64_t>(edge_to_.size()); }

  /// Sum of all finite staged capacities (the basis of the effective
  /// infinity; must stay below kInfiniteCapacity / 4).
  Capacity TotalFiniteCapacity() const { return total_finite_; }

  /// Builds the CSR residual arcs (counting sort), runs Dinic, and
  /// extracts the minimum cut. Destructive on staged capacities — may be
  /// called at most once per Reset(). Infinite capacities are handled
  /// exactly: a cut is reported infinite iff its value must exceed the
  /// total finite capacity. When `trace` is non-null, the CSR build,
  /// Dinic, and cut extraction are bracketed as flow_build / dinic /
  /// cut_extract spans (allocation-free — see obs/trace.h).
  const MinCutView& Solve(obs::TraceContext* trace = nullptr);

  /// Total bytes currently reserved across every internal buffer. Stable
  /// across solves of same-shaped inputs once warm — the scratch-reuse
  /// tests assert steady-state zero allocation through this.
  size_t total_capacity_bytes() const;

 private:
  void BuildCsr();
  bool LevelToTarget();
  bool BlockingFlow();
  void MarkSourceSide();

  int num_vertices_ = 0;
  int source_ = -1;
  int target_ = -1;
  bool solved_ = false;
  Capacity total_finite_ = 0;
  Capacity effective_infinity_ = 0;
  Capacity flow_ = 0;

  // Staged edges, AddEdge order (struct-of-arrays for the counting sort).
  std::vector<int32_t> edge_from_;
  std::vector<int32_t> edge_to_;
  std::vector<Capacity> edge_cap_;

  // CSR residual arcs: vertex v owns arcs [arc_offset_[v], arc_offset_[v+1]).
  std::vector<int32_t> arc_offset_;  // size num_vertices_ + 1
  std::vector<int32_t> arc_to_;
  std::vector<int32_t> arc_pair_;  // reverse-arc index
  std::vector<Capacity> arc_cap_;
  std::vector<int32_t> cursor_;  // counting-sort placement cursor

  // Search state. level_[v] is v's residual distance to the target.
  std::vector<int32_t> level_;
  std::vector<int32_t> iter_;
  std::vector<int32_t> queue_;
  std::vector<int32_t> path_;  // DFS stack of arc indices
  std::vector<uint8_t> side_;  // 1 iff reachable from the source
  std::vector<int32_t> cut_edges_;
  MinCutView view_;
};

}  // namespace rpqres

#endif  // RPQRES_FLOW_RESIDUAL_GRAPH_H_
