#include "lang/repeated_letter.h"

#include <algorithm>

namespace rpqres {
namespace {

// The shortest, then least, word of L with at least two a's: a BFS over
// (DFA state, a's read so far, capped at 2), letters in alphabet order.
std::optional<std::string> ShortestWordRepeating(const Dfa& dfa, char a) {
  const int n = dfa.num_states();
  const int k = static_cast<int>(dfa.alphabet().size());
  if (n == 0) return std::nullopt;
  // Node 3 * state + count, with the node and letter it was reached by.
  const size_t nodes = 3 * static_cast<size_t>(n);
  std::vector<int> via_node(nodes, -1), via_letter(nodes, -1);
  std::vector<bool> seen(nodes, false);
  const int start = 3 * dfa.initial();
  std::vector<int> queue{start};
  seen[start] = true;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int node = queue[head];
    if (node % 3 == 2 && dfa.IsFinal(node / 3)) {
      std::string word;
      for (int v = node; via_node[v] >= 0; v = via_node[v]) {
        word.insert(word.begin(), dfa.alphabet()[via_letter[v]]);
      }
      return word;
    }
    for (int b = 0; b < k; ++b) {
      const int t = dfa.NextByIndex(node / 3, b);
      if (t == kNoState) continue;
      const int count = std::min(2, node % 3 + (dfa.alphabet()[b] == a));
      const int to = 3 * t + count;
      if (seen[to]) continue;
      seen[to] = true;
      via_node[to] = node;
      via_letter[to] = b;
      queue.push_back(to);
    }
  }
  return std::nullopt;
}

}  // namespace

bool HasRepeatedLetterWord(const Language& lang) {
  for (char a : lang.used_letters()) {
    if (ShortestWordRepeating(lang.min_dfa(), a)) return true;
  }
  return false;
}

std::optional<std::string> ShortestRepeatedLetterWord(const Language& lang) {
  std::optional<std::string> best;
  for (char a : lang.used_letters()) {
    std::optional<std::string> word = ShortestWordRepeating(lang.min_dfa(), a);
    if (word && (!best || word->size() < best->size() ||
                 (word->size() == best->size() && *word < *best))) {
      best = word;
    }
  }
  return best;
}

std::optional<RepeatedLetterWord> BestRepeatInWord(const std::string& word) {
  std::optional<RepeatedLetterWord> best;
  for (size_t i = 0; i < word.size(); ++i) {
    for (size_t j = i + 1; j < word.size(); ++j) {
      if (word[i] != word[j]) continue;
      if (!best || j - i - 1 > best->gap()) {
        best = RepeatedLetterWord{word, word[i], i, j};
      }
    }
  }
  return best;
}

std::optional<RepeatedLetterWord> FindMaximalGapWord(
    const std::vector<std::string>& words) {
  std::optional<RepeatedLetterWord> best;
  for (const std::string& word : words) {
    std::optional<RepeatedLetterWord> candidate = BestRepeatInWord(word);
    if (!candidate) continue;
    if (!best || candidate->gap() > best->gap() ||
        (candidate->gap() == best->gap() &&
         candidate->word.size() > best->word.size())) {
      best = candidate;
    }
  }
  return best;
}

Result<std::optional<RepeatedLetterWord>> FindMaximalGapWord(
    const Language& lang) {
  RPQRES_ASSIGN_OR_RETURN(std::vector<std::string> words, lang.Words());
  return FindMaximalGapWord(words);
}

}  // namespace rpqres
