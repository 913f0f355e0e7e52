#include "lang/one_dangling.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "automata/ops.h"
#include "lang/local.h"

namespace rpqres {

std::optional<OneDanglingDecomposition> FindOneDanglingDecomposition(
    const Language& lang) {
  // Candidate dangling words: the two-letter words of L.
  Result<std::vector<std::string>> short_words = lang.WordsUpTo(2);
  if (!short_words.ok()) return std::nullopt;
  for (const std::string& w : *short_words) {
    if (w.size() != 2 || w[0] == w[1]) continue;
    char x = w[0], y = w[1];
    // base = L \ {xy}. Freshness is read off the product, before the base
    // is minimized into a Language.
    Dfa base_dfa = DifferenceDfa(lang.min_dfa(), MinimalDfa(EnfaFromWord(w)));
    const std::vector<char> used = UsedLetters(base_dfa);
    bool x_in_base = std::binary_search(used.begin(), used.end(), x);
    bool y_in_base = std::binary_search(used.begin(), used.end(), y);
    if (x_in_base && y_in_base) continue;  // neither endpoint is fresh
    Language base = Language::FromDfa(base_dfa);
    base.set_description(lang.description() + " \\ {" + w + "}");
    if (!IsLocal(base)) continue;
    OneDanglingDecomposition decomposition{x, y, std::move(base), x_in_base,
                                           y_in_base};
    return decomposition;
  }
  return std::nullopt;
}

}  // namespace rpqres
