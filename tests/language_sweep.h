// rpqres tests — the language sets the classifier and language-property
// sweeps share: every small finite language over {a, b, c}, the large
// finite languages of repeated letter groups, and the regex stream the
// query generator draws for the engine and the benchmark.

#ifndef RPQRES_TESTS_LANGUAGE_SWEEP_H_
#define RPQRES_TESTS_LANGUAGE_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/query_generator.h"

namespace rpqres {

/// Every language of one or two words of length 1-3 over {a, b, c}: the
/// 39 single words and the 741 pairs of distinct words, 780 word sets.
inline std::vector<std::vector<std::string>> SmallWordSets() {
  std::vector<std::string> words = {"a", "b", "c"};
  for (size_t i = 0; words.size() < 39; ++i) {
    for (char x : {'a', 'b', 'c'}) words.push_back(words[i] + x);
  }
  std::vector<std::vector<std::string>> sets;
  for (size_t i = 0; i < words.size(); ++i) {
    sets.push_back({words[i]});
    for (size_t j = i + 1; j < words.size(); ++j) {
      sets.push_back({words[i], words[j]});
    }
  }
  return sets;
}

/// `group` written `times` times in a row: RepeatedGroup("(a|b|c|d)", 11)
/// is a finite, infix-free language of 4^11 words, all of 11 letters.
inline std::string RepeatedGroup(const std::string& group, int times) {
  std::string regex;
  for (int i = 0; i < times; ++i) regex += group;
  return regex;
}

/// `count` regexes drawn by workload::GenerateQuery from Rng(seed),
/// cycling over every query class, at the word bound the engine and the
/// benchmark use (8). Draws that fail are skipped.
inline std::vector<std::string> GeneratedRegexes(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::string> regexes;
  for (int i = 0; i < count; ++i) {
    const workload::QueryClass target =
        workload::kAllQueryClasses[i % workload::kAllQueryClasses.size()];
    Result<workload::GeneratedQuery> query = workload::GenerateQuery(
        &rng, target, /*max_attempts=*/64, /*max_word_length=*/8);
    if (query.ok()) regexes.push_back(query->regex);
  }
  return regexes;
}

}  // namespace rpqres

#endif  // RPQRES_TESTS_LANGUAGE_SWEEP_H_
