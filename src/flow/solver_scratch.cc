#include "flow/solver_scratch.h"

namespace rpqres {

SolverScratch& SolverScratch::ThreadLocal() {
  static thread_local SolverScratch scratch;
  return scratch;
}

namespace {

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

size_t SolverScratch::total_capacity_bytes() const {
  return graph.total_capacity_bytes() + VectorBytes(fact_of_edge) +
         reach_bwd.capacity_bytes() + product_id.capacity_bytes() +
         VectorBytes(bwd_queue) + VectorBytes(live_list) +
         VectorBytes(candidate_facts) + VectorBytes(start_of) +
         VectorBytes(end_of) + VectorBytes(split_z) + VectorBytes(middle_of) +
         VectorBytes(middle_nodes) + VectorBytes(z_cut);
}

}  // namespace rpqres
