#include "resilience/ro_tables.h"

#include "lang/ro_enfa.h"

namespace rpqres {

namespace {

// CSR over states from a pair list; `pairs` yields (state, value).
template <typename Value>
void StateCsr(int num_states,
              const std::vector<std::pair<int, Value>>& pairs,
              std::vector<int32_t>* offsets, std::vector<Value>* values) {
  offsets->assign(num_states + 1, 0);
  for (const auto& [state, value] : pairs) ++(*offsets)[state + 1];
  for (int s = 0; s < num_states; ++s) (*offsets)[s + 1] += (*offsets)[s];
  values->resize(pairs.size());
  std::vector<int32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (const auto& [state, value] : pairs) (*values)[cursor[state]++] = value;
}

// Per state: 1 iff it is reachable from `seeds` along the CSR's arcs.
std::vector<uint8_t> Closure(const std::vector<int32_t>& seeds,
                             const std::vector<int32_t>& offsets,
                             const std::vector<int32_t>& arcs) {
  std::vector<uint8_t> marked(offsets.size() - 1, 0);
  std::vector<int32_t> stack;
  for (int32_t s : seeds) {
    if (!marked[s]) {
      marked[s] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const int32_t s = stack.back();
    stack.pop_back();
    for (int32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      if (!marked[arcs[i]]) {
        marked[arcs[i]] = 1;
        stack.push_back(arcs[i]);
      }
    }
  }
  return marked;
}

}  // namespace

Result<RoProductTables> BuildRoProductTables(const Enfa& ro) {
  if (!IsRoEnfa(ro)) {
    return Status::FailedPrecondition(
        "BuildRoProductTables: automaton is not read-once");
  }
  RoProductTables t;
  t.num_states = ro.num_states();
  t.accepts_epsilon = ro.Accepts("");
  t.letter_from.fill(-1);
  t.letter_to.fill(-1);
  std::vector<std::pair<int, int32_t>> eps_out, eps_in;
  for (const EnfaTransition& tr : ro.transitions()) {
    if (tr.symbol == kEpsilonSymbol) {
      ++t.eps_transitions;
      eps_out.push_back({tr.from, tr.to});
      eps_in.push_back({tr.to, tr.from});
      continue;
    }
    unsigned char symbol = static_cast<unsigned char>(tr.symbol);
    t.letter_from[symbol] = static_cast<int16_t>(tr.from);
    t.letter_to[symbol] = static_cast<int16_t>(tr.to);
  }
  StateCsr(t.num_states, eps_out, &t.eps_out_offset, &t.eps_out);
  StateCsr(t.num_states, eps_in, &t.eps_in_offset, &t.eps_in);
  std::vector<std::pair<int, uint8_t>> out_pairs, in_pairs;
  for (int l = 0; l < 256; ++l) {
    if (t.letter_from[l] >= 0) {
      out_pairs.push_back({t.letter_from[l], static_cast<uint8_t>(l)});
      in_pairs.push_back({t.letter_to[l], static_cast<uint8_t>(l)});
    }
  }
  StateCsr(t.num_states, out_pairs, &t.labels_out_offset, &t.labels_out);
  StateCsr(t.num_states, in_pairs, &t.labels_in_offset, &t.labels_in);
  t.is_initial.assign(t.num_states, 0);
  t.is_final.assign(t.num_states, 0);
  for (int s : ro.initial_states()) {
    t.is_initial[s] = 1;
    t.initial_states.push_back(s);
  }
  for (int s : ro.final_states()) {
    t.is_final[s] = 1;
    t.final_states.push_back(s);
  }
  t.eps_from_initial = Closure(t.initial_states, t.eps_out_offset, t.eps_out);
  t.eps_to_final = Closure(t.final_states, t.eps_in_offset, t.eps_in);
  for (int l = 0; l < 256; ++l) {
    if (t.letter_from[l] < 0) continue;
    if (t.eps_from_initial[t.letter_from[l]]) {
      t.source_labels.push_back(static_cast<uint8_t>(l));
    }
    if (t.eps_to_final[t.letter_to[l]]) {
      t.target_labels.push_back(static_cast<uint8_t>(l));
    }
  }
  return t;
}

}  // namespace rpqres
