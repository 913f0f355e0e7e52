// rpqres — automata/ops: the automata toolbox used by all language-level
// analyses: determinization, minimization, difference, decision
// procedures, and word enumeration.
//
// Conventions:
//  * Determinize/Minimize/DifferenceDfa work with *complete* DFAs: every
//    state has a transition for every symbol of the DFA's alphabet (a sink
//    state is materialized when needed).
//  * Operations that combine two automata first extend both to the union of
//    their alphabets.

#ifndef RPQRES_AUTOMATA_OPS_H_
#define RPQRES_AUTOMATA_OPS_H_

#include <optional>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/enfa.h"
#include "util/status.h"

namespace rpqres {

/// Union of two sorted, deduplicated alphabets.
std::vector<char> MergeAlphabets(const std::vector<char>& a,
                                 const std::vector<char>& b);

// --- εNFA constructions ----------------------------------------------------

/// εNFA accepting exactly {word}.
Enfa EnfaFromWord(const std::string& word);
/// εNFA accepting exactly the given set of words.
Enfa EnfaFromWords(const std::vector<std::string>& words);
/// Mirror language L(a)^R (reverse all transitions, swap initial/final) —
/// the reduction of Prp 6.3.
Enfa EnfaMirror(const Enfa& a);
/// Restriction of an εNFA to useful states (accessible + co-accessible),
/// Definition C.3. States are renumbered.
Enfa EnfaTrim(const Enfa& a);
/// Embeds a DFA as an εNFA (missing transitions simply absent).
Enfa DfaToEnfa(const Dfa& a);

// --- Determinization and minimization --------------------------------------

/// Subset construction. The result is a *complete* DFA over
/// MergeAlphabets(a.Alphabet(), extra_alphabet).
Dfa Determinize(const Enfa& a, const std::vector<char>& extra_alphabet = {});

/// Extends `a` to a complete DFA over MergeAlphabets(a.alphabet(), alphabet)
/// by adding a sink state if necessary.
Dfa CompleteDfa(const Dfa& a, const std::vector<char>& alphabet = {});

/// Minimal complete DFA for L(a) (Moore partition refinement). The result's
/// states are numbered in BFS order from the initial state, making equal
/// languages over equal alphabets yield structurally identical DFAs.
Dfa Minimize(const Dfa& a);

/// Convenience: parse-free pipeline εNFA -> minimal complete DFA.
Dfa MinimalDfa(const Enfa& a, const std::vector<char>& extra_alphabet = {});

// --- Difference of complete DFAs -------------------------------------------

/// Product automaton for L(a) \ L(b), over the states reachable from the
/// initial pair; inputs are completed over the merged alphabet first.
Dfa DifferenceDfa(const Dfa& a, const Dfa& b);

// --- Decision procedures ----------------------------------------------------

/// True iff L(a) = ∅.
bool DfaIsEmptyLanguage(const Dfa& a);
/// True iff L(a) ⊆ L(b).
bool IsSubsetOf(const Dfa& a, const Dfa& b);
/// True iff L(a) = L(b).
bool AreEquivalent(const Dfa& a, const Dfa& b);
/// True iff L(a) is finite.
bool DfaIsFinite(const Dfa& a);

/// useful[q]: state q of `a` is reachable from the initial state and some
/// final state is reachable from q.
std::vector<bool> UsefulStates(const Dfa& a);

/// The letters on transitions between useful states: those that occur in
/// some word of L(a), sorted.
std::vector<char> UsedLetters(const Dfa& a);

/// Shortest accepted word (by length, ties broken lexicographically), or
/// nullopt if the language is empty.
std::optional<std::string> ShortestWord(const Dfa& a);

// --- Enumeration ------------------------------------------------------------

/// All words of a finite language, sorted by (length, lexicographic).
/// Fails with FailedPrecondition if L(a) is infinite, or OutOfRange if the
/// language has more than `max_words` words.
Result<std::vector<std::string>> EnumerateFiniteLanguage(
    const Dfa& a, size_t max_words = 1 << 20);

/// All accepted words of length <= max_length, sorted by (length, lex).
/// Fails with OutOfRange if more than `max_words` would be returned.
Result<std::vector<std::string>> WordsUpToLength(const Dfa& a, int max_length,
                                                 size_t max_words = 1 << 20);

/// The first `max_words` words of WordsUpToLength's list, found without
/// listing the rest.
std::vector<std::string> FirstWordsUpToLength(const Dfa& a, int max_length,
                                              size_t max_words);

/// Word counts saturate here: a count of kWordCountCap means at least that
/// many words.
inline constexpr uint64_t kWordCountCap = ~0ULL / 2;

/// Number of accepted words of each length 0..max_length, each at most
/// kWordCountCap.
std::vector<uint64_t> CountWordsByLength(const Dfa& a, int max_length);

}  // namespace rpqres

#endif  // RPQRES_AUTOMATA_OPS_H_
