// rpqres — lang/repeated_letter: words with repeated letters (Section 6).
//
// Theorem 6.1: a finite infix-free language containing a word with a
// repeated letter has NP-complete resilience. The proof machinery picks a
// *maximal-gap* word (Def 6.4), which we also expose for the gadget
// constructions.

#ifndef RPQRES_LANG_REPEATED_LETTER_H_
#define RPQRES_LANG_REPEATED_LETTER_H_

#include <optional>
#include <string>
#include <vector>

#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// Decomposition of a word β a γ a δ around a repeated letter.
struct RepeatedLetterWord {
  std::string word;   ///< the full word βaγaδ
  char letter = '\0'; ///< the repeated letter a
  size_t first_pos = 0;   ///< index of the first a
  size_t second_pos = 0;  ///< index of the second a (gap = second-first-1)

  std::string beta() const { return word.substr(0, first_pos); }
  std::string gamma() const {
    return word.substr(first_pos + 1, second_pos - first_pos - 1);
  }
  std::string delta() const { return word.substr(second_pos + 1); }
  size_t gap() const { return second_pos - first_pos - 1; }
};

/// True iff some word of L (finite or infinite) repeats some letter,
/// decided on the minimal DFA: one breadth-first walk per letter a over
/// pairs (state, occurrences of a read so far: 0, 1 or 2+).
bool HasRepeatedLetterWord(const Language& lang);

/// Shortest word of L with a repeated letter, or nullopt.
std::optional<std::string> ShortestRepeatedLetterWord(const Language& lang);

/// Finds the positions of a repeated letter in `word` maximizing the gap;
/// nullopt if all letters are distinct.
std::optional<RepeatedLetterWord> BestRepeatInWord(const std::string& word);

/// A maximal-gap word of a finite language (Def 6.4): maximize the gap γ
/// between the repeated letters, then the total word length; nullopt if no
/// word has a repeated letter. Reads the word list of L: FailedPrecondition
/// if L is infinite, OutOfRange past Language::Words' 2^20 words.
Result<std::optional<RepeatedLetterWord>> FindMaximalGapWord(
    const Language& lang);

/// Word-list variant of FindMaximalGapWord (for tests).
std::optional<RepeatedLetterWord> FindMaximalGapWord(
    const std::vector<std::string>& words);

}  // namespace rpqres

#endif  // RPQRES_LANG_REPEATED_LETTER_H_
