// rpqres — lang/star_free: star-freeness (Section 5.2).
//
// A regular language is star-free iff its syntactic monoid is aperiodic
// (Schützenberger; the paper cites the equivalent counter-freeness of
// [McNaughton & Papert 33]). We compute the transition monoid of the
// minimal DFA and check that every element m satisfies m^k = m^{k+1} for
// some k. Non-star-free infix-free languages are four-legged (Lemma 5.6),
// hence NP-hard.

#ifndef RPQRES_LANG_STAR_FREE_H_
#define RPQRES_LANG_STAR_FREE_H_

#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// Tests star-freeness by monoid aperiodicity. Fails with OutOfRange if the
/// transition monoid exceeds `max_monoid_size` elements (worst case n^n),
/// or 2^22 stored state ids (elements × |Q|, 16 MiB). Star-freeness of a
/// DFA is PSPACE-complete, so the walk keeps an exponential worst case
/// that only these constant caps bound. Each element's aperiodicity is
/// then an O(|Q|) check.
Result<bool> IsStarFree(const Language& lang,
                        size_t max_monoid_size = 1 << 18);

/// Size of the transition monoid of the minimal DFA (for tests/diagnostics).
Result<size_t> TransitionMonoidSize(const Language& lang,
                                    size_t max_monoid_size = 1 << 18);

}  // namespace rpqres

#endif  // RPQRES_LANG_STAR_FREE_H_
