#include "lang/chain.h"

#include <algorithm>
#include <queue>

#include "util/strings.h"

namespace rpqres {

ChainAnalysis AnalyzeChainWords(const std::vector<std::string>& words) {
  ChainAnalysis out;
  out.words = words;
  // Condition 1: no word contains a repeated letter.
  for (const std::string& w : words) {
    std::vector<char> sorted(w.begin(), w.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      out.violation = "word " + DisplayWord(w) + " repeats a letter";
      return out;
    }
  }
  // Condition 2: middle letters are private to their word.
  for (const std::string& w : words) {
    if (w.size() < 2) continue;
    for (size_t i = 1; i + 1 < w.size(); ++i) {
      char middle = w[i];
      for (const std::string& other : words) {
        if (&other == &w) continue;
        if (other.find(middle) != std::string::npos) {
          out.violation = std::string("middle letter '") + middle +
                          "' of word " + DisplayWord(w) +
                          " occurs in word " + DisplayWord(other);
          return out;
        }
      }
    }
  }
  out.is_chain = true;
  return out;
}

ChainAnalysis AnalyzeChain(const Language& lang) {
  ChainAnalysis out;
  if (!lang.IsFinite()) {
    out.violation = "language is infinite (chain languages are finite)";
    return out;
  }
  // Def 7.1 admits at most |Σ| one-letter words, |Σ|(|Σ|−1) two-letter
  // words and one longer word per private middle letter.
  const size_t sigma = lang.used_letters().size();
  const size_t max_words = sigma * sigma + sigma;
  Result<std::vector<std::string>> words = lang.Words(max_words);
  if (!words.ok()) {
    out.violation = "more than " + std::to_string(max_words) +
                    " words (a chain language over " + std::to_string(sigma) +
                    " letters has at most |Σ|² + |Σ|)";
    return out;
  }
  return AnalyzeChainWords(*words);
}

EndpointGraph BuildEndpointGraph(const std::vector<std::string>& words) {
  EndpointGraph graph;
  for (const std::string& w : words) {
    for (char c : w) graph.letters.push_back(c);
  }
  std::sort(graph.letters.begin(), graph.letters.end());
  graph.letters.erase(
      std::unique(graph.letters.begin(), graph.letters.end()),
      graph.letters.end());
  for (const std::string& w : words) {
    if (w.size() < 2) continue;
    char a = w.front(), b = w.back();
    if (a == b) continue;  // Def 7.2 requires a ≠ b
    if (a > b) std::swap(a, b);
    graph.edges.push_back({a, b});
  }
  std::sort(graph.edges.begin(), graph.edges.end());
  graph.edges.erase(std::unique(graph.edges.begin(), graph.edges.end()),
                    graph.edges.end());
  return graph;
}

std::optional<std::map<char, int>> BipartitionEndpointGraph(
    const EndpointGraph& graph) {
  std::map<char, std::vector<char>> adjacency;
  for (auto [a, b] : graph.edges) {
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  std::map<char, int> color;
  for (char root : graph.letters) {
    if (color.count(root)) continue;
    color[root] = 0;
    std::queue<char> queue;
    queue.push(root);
    while (!queue.empty()) {
      char u = queue.front();
      queue.pop();
      for (char v : adjacency[u]) {
        auto it = color.find(v);
        if (it == color.end()) {
          color[v] = 1 - color[u];
          queue.push(v);
        } else if (it->second == color[u]) {
          return std::nullopt;  // odd cycle
        }
      }
    }
  }
  return color;
}

bool IsBipartiteChainLanguage(const Language& lang) {
  ChainAnalysis analysis = AnalyzeChain(lang);
  if (!analysis.is_chain) return false;
  EndpointGraph graph = BuildEndpointGraph(analysis.words);
  return BipartitionEndpointGraph(graph).has_value();
}

}  // namespace rpqres
