// rpqres — resilience/ro_tables: the per-automaton tables of the Thm 3.13
// product construction, precomputed once per plan.
//
// Every local flow solve needs the same derived views of its RO-εNFA
// (BuildRoEnfa's, read off the minimal DFA: Thm 3.13 accepts any
// RO-εNFA for L): flat 256-entry letter→transition tables, ε-adjacency
// CSRs in both directions, per-state readable-label lists, initial/final
// membership bits, their ε-closures, and the labels of the facts that
// leave the source and enter the target of a contracted network, from
// which the solver seeds its two sweeps. They depend only on the
// automaton, so the planner builds them once (ResiliencePlan::ro_tables /
// CompiledQuery::ro_tables_exact) and every solve against any database
// starts emitting arcs immediately.

#ifndef RPQRES_RESILIENCE_RO_TABLES_H_
#define RPQRES_RESILIENCE_RO_TABLES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "automata/enfa.h"
#include "util/status.h"

namespace rpqres {

/// Immutable solver-ready view of one read-once εNFA.
struct RoProductTables {
  int num_states = 0;
  /// ε ∈ L(A) — the trivial-infinity test of the product construction.
  bool accepts_epsilon = false;
  int64_t eps_transitions = 0;
  /// States of the unique l-transition, or -1 when A does not read l.
  std::array<int16_t, 256> letter_from;
  std::array<int16_t, 256> letter_to;
  /// ε-adjacency over states (CSR), forward and backward.
  std::vector<int32_t> eps_out_offset, eps_out;
  std::vector<int32_t> eps_in_offset, eps_in;
  /// Letters read out of / into each state (CSR over states).
  std::vector<int32_t> labels_out_offset, labels_in_offset;
  std::vector<uint8_t> labels_out, labels_in;
  /// Per-state initial/final membership (the hookup tests of the full,
  /// uncontracted network).
  std::vector<uint8_t> is_initial, is_final;
  std::vector<int32_t> initial_states, final_states;
  /// Per state: 1 iff it lies in the ε-closure of an initial state, and 1
  /// iff it ε-reaches a final state. The product pairs of such states are
  /// joined to the source, resp. the target, by infinite edges alone.
  std::vector<uint8_t> eps_from_initial, eps_to_final;
  /// The labels read out of a state of the initial ε-closure, and the
  /// labels read into a state that ε-reaches a final state, in label
  /// order. Their facts leave the source, resp. enter the target, so the
  /// forward sweep starts from the first list's facts and the backward
  /// sweep from the second's.
  std::vector<uint8_t> source_labels, target_labels;
};

/// Derives the tables; FailedPrecondition when `ro` is not read-once.
Result<RoProductTables> BuildRoProductTables(const Enfa& ro);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_RO_TABLES_H_
