// rpqres — resilience/result: shared result type of all resilience solvers.

#ifndef RPQRES_RESILIENCE_RESULT_H_
#define RPQRES_RESILIENCE_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graphdb/graph_db.h"

namespace rpqres {

/// Outcome of a resilience computation RES(Q_L, D).
struct ResilienceResult {
  /// True iff Q_L holds on every subinstance of D (ε ∈ L); the paper's
  /// convention sets RES = +∞ in that case and `value` is meaningless.
  bool infinite = false;
  /// The resilience value (min deletion cost).
  Capacity value = 0;
  /// A witness minimum contingency set: fact ids, sorted, whose removal
  /// falsifies Q_L and whose total cost equals `value`. Empty if infinite.
  std::vector<FactId> contingency;
  /// Which algorithm produced the answer (for reports).
  std::string algorithm;

  // --- solver statistics (informational) -----------------------------------
  int64_t network_vertices = 0;  ///< flow-based solvers: |V| of the network
  int64_t network_edges = 0;     ///< flow-based solvers: |E| of the network
  /// Product-pruning effect (local flow): dead (node, state) vertices and
  /// edges the reach/co-reach sweep skipped relative to the full |V|·|S|
  /// construction.
  int64_t product_vertices_pruned = 0;
  int64_t product_edges_pruned = 0;
  uint64_t search_nodes = 0;     ///< exact solver: branch-and-bound nodes
};

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_RESULT_H_
