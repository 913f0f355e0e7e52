// rpqres — lang/one_dangling: one-dangling languages (Def 7.8).
//
// A one-dangling language is L₀ ∪ {xy} where L₀ is local over an alphabet
// Σ and x ≠ y with at least one of x, y outside Σ. Prp 7.9 gives a PTIME
// resilience algorithm by rewriting to a local-language instance.

#ifndef RPQRES_LANG_ONE_DANGLING_H_
#define RPQRES_LANG_ONE_DANGLING_H_

#include <optional>
#include <string>

#include "lang/language.h"

namespace rpqres {

/// A decomposition L = base ∪ {xy} witnessing that L is one-dangling.
struct OneDanglingDecomposition {
  char x = '\0';
  char y = '\0';
  Language base;        ///< L₀ = L \ {xy}, a local language
  bool x_in_base = false;  ///< whether x occurs in words of L₀
  bool y_in_base = false;  ///< whether y occurs in words of L₀ (not both)
};

/// Searches for a one-dangling decomposition of L (Def 7.8): a two-letter
/// word xy ∈ L, x ≠ y, such that L \ {xy} is local and x or y does not
/// occur in L \ {xy}. Returns nullopt if none exists.
///
/// Def 7.8 is symmetric in x and y, and local languages are closed under
/// reversal, so Mirror(L) decomposes exactly when L does: no caller
/// retries on the mirror. When only x is fresh, BuildOneDanglingTables
/// (resilience/one_dangling_resilience.h) splits y-facts at their source,
/// the mirror image of the paper's construction mapped back onto D, so no
/// solve mirrors a database either.
std::optional<OneDanglingDecomposition> FindOneDanglingDecomposition(
    const Language& lang);

}  // namespace rpqres

#endif  // RPQRES_LANG_ONE_DANGLING_H_
