// rpqres — lang/chain: chain languages and bipartite chain languages
// (Section 7.1, Defs 7.1–7.2).
//
// A chain language has no repeated letter inside a word, and the middle
// letters of each word are private to that word. Chain languages are always
// finite. A chain language is a BCL when its endpoint graph (letters as
// vertices, word endpoints as edges) is bipartite; Prp 7.6 shows BCLs have
// PTIME resilience.

#ifndef RPQRES_LANG_CHAIN_H_
#define RPQRES_LANG_CHAIN_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// Outcome of the chain-language analysis of a language.
struct ChainAnalysis {
  bool is_chain = false;
  std::vector<std::string> words;  ///< explicit word list (valid iff finite)
  std::string violation;           ///< human-readable reason if !is_chain
};

/// Checks Definition 7.1 on a language (extracting the explicit word list à
/// la Lemma 7.7; infinite languages are never chain languages). A chain
/// language has at most |Σ|² + |Σ| words, so at most that many are listed:
/// past the cap the language is not a chain language, and the violation
/// names the cap.
ChainAnalysis AnalyzeChain(const Language& lang);

/// Word-list variant (used by tests and by the BCL solver front-end).
ChainAnalysis AnalyzeChainWords(const std::vector<std::string>& words);

/// The endpoint graph of Definition 7.2 over the words of a language:
/// vertices = letters, edges = {first, last} of each word of length >= 2.
struct EndpointGraph {
  std::vector<char> letters;                   ///< all used letters
  std::vector<std::pair<char, char>> edges;    ///< deduplicated, a < b
};

EndpointGraph BuildEndpointGraph(const std::vector<std::string>& words);

/// 2-colors the endpoint graph; nullopt if it is not bipartite. Colors are
/// 0 (source partition) / 1 (target partition); letters without incident
/// edges get color 0.
std::optional<std::map<char, int>> BipartitionEndpointGraph(
    const EndpointGraph& graph);

/// True iff L is a bipartite chain language (Def 7.2).
bool IsBipartiteChainLanguage(const Language& lang);

}  // namespace rpqres

#endif  // RPQRES_LANG_CHAIN_H_
