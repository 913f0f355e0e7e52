// rpqres — lang/ro_enfa: Read-Once εNFAs (Def 3.15, Lemma 3.17).
//
// An RO-εNFA has at most one transition per letter; RO-εNFAs recognize
// exactly the local languages, and their read-once property is what makes
// the product network of Theorem 3.13 have one finite-capacity edge per
// database fact.
//
// Theorem 3.13 needs only some RO-εNFA A for L, and its bound
// Õ(|A|·|D|·|Σ|) grows with A. Lemma 3.17 proves that one exists with
// one in-state and one out-state per letter joined by ε-edges; BuildRoEnfa
// reads a smaller one off L's minimal DFA instead. On the useful states of
// a local DFA every c-transition has the same target t(c) (Def 3.1), so a
// letter whose useful c-transitions all leave one state p keeps the single
// transition p -c-> t(c), and the letters whose c-transitions leave the
// same larger set P of states share one hub state h_P, entered by ε from
// each state of P, with h_P -c-> t(c). A run of the DFA is a run of A with
// an ε-step before each hub, and a hub's letters leave every state that
// enters it, so A recognizes L. Every state of A is useful (accessible and
// co-accessible), which keeps the network's minimum cut closest to the
// source, and so the contingency set, the one Lemma 3.17's automaton gives:
// on a trim RO-εNFA a product vertex is reachable iff some walk reads a
// prefix of L into it, whatever the automaton.

#ifndef RPQRES_LANG_RO_ENFA_H_
#define RPQRES_LANG_RO_ENFA_H_

#include "automata/enfa.h"
#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// True iff `a` has at most one transition per (non-ε) letter (Def 3.15).
bool IsRoEnfa(const Enfa& a);

/// Builds an RO-εNFA recognizing L from its minimal DFA in one
/// O(|Σ|·|Q|) scan: the useful DFA states, the initial one first, then
/// one hub per shared set of source states. At most |Σ| + 1 useful states
/// and |Σ| hubs, so ≤ 2|Σ|+1 states as in Lemma 3.17; `ax*b` is
/// q0 -a-> M -x-> M -b-> F. The same scan checks locality (Def 3.1 on the
/// useful states, as IsLocal) and fails with FailedPrecondition if L is not
/// local, so this also serves as the "promise" check of Theorem 3.13's
/// combined-complexity statement.
Result<Enfa> BuildRoEnfa(const Language& lang);

}  // namespace rpqres

#endif  // RPQRES_LANG_RO_ENFA_H_
