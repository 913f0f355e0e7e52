// rpqres — graphdb/rpq_eval: Boolean RPQ evaluation Q_L(D) and witness-walk
// extraction, via the standard product construction (database × automaton)
// plus reachability (paper cites [Mendelzon & Wood, Lemma 3.1]).
//
// The automaton is L's minimal DFA. The search expands a (node, state) pair
// through the LabelIndex: for each letter of the DFA's alphabet, in order,
// the facts with that letter at the node. It never enters the DFA's sink,
// the one state of a minimal DFA that reaches no final state. The DFA
// overloads take the index from the caller, so a search loop (the exact
// branch & bound) builds it once; the Language overloads build their own.

#ifndef RPQRES_GRAPHDB_RPQ_EVAL_H_
#define RPQRES_GRAPHDB_RPQ_EVAL_H_

#include <optional>
#include <vector>

#include "automata/dfa.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"

namespace rpqres {

/// A witness walk: the fact ids of an L-walk, in walk order (a fact may
/// repeat). Empty when ε ∈ L (the query holds vacuously).
using WitnessWalk = std::vector<FactId>;

/// True iff D contains an L(A)-walk (i.e. Q_L(D) = 1). O(|A|·|D|).
/// `index` must be built from `db`. If `removed_facts` is given, facts
/// with removed_facts[id] == true are treated as deleted (used by the
/// exact branch-and-bound solver to avoid copying the database at every
/// node).
bool EvaluatesToTrue(const GraphDb& db, const LabelIndex& index,
                     const Dfa& query,
                     const std::vector<bool>* removed_facts = nullptr);
bool EvaluatesToTrue(const GraphDb& db, const Language& lang);

/// A shortest witness walk (fewest facts, counting repetitions), or nullopt
/// when Q does not hold. The empty walk is returned iff ε ∈ L.
std::optional<WitnessWalk> ShortestWitnessWalk(
    const GraphDb& db, const LabelIndex& index, const Dfa& query,
    const std::vector<bool>* removed_facts = nullptr);
std::optional<WitnessWalk> ShortestWitnessWalk(const GraphDb& db,
                                               const Language& lang);

/// Fixed-endpoint variant (the non-Boolean RPQ setting of Section 8):
/// true iff D contains an L(A)-walk from `source` to `target`. The empty
/// walk counts iff ε ∈ L and source == target.
bool EvaluatesToTrueBetween(const GraphDb& db, const LabelIndex& index,
                            const Dfa& query, NodeId source, NodeId target,
                            const std::vector<bool>* removed_facts = nullptr);

/// The word labeling a witness walk.
std::string WalkLabel(const GraphDb& db, const WitnessWalk& walk);

/// Distinct facts of a walk, sorted (the *match* of Def 4.7 defined by it).
std::vector<FactId> WalkMatch(const WitnessWalk& walk);

}  // namespace rpqres

#endif  // RPQRES_GRAPHDB_RPQ_EVAL_H_
