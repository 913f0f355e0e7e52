// rpqres — lang/language: a regular language held as its minimal complete
// DFA, with cached basic facts. This is the main value type passed to all
// analyses and resilience solvers.

#ifndef RPQRES_LANG_LANGUAGE_H_
#define RPQRES_LANG_LANGUAGE_H_

#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/enfa.h"
#include "regex/ast.h"
#include "util/status.h"

namespace rpqres {

/// A regular language L over single-character letters.
///
/// Holds one automaton, the minimal complete DFA, computed eagerly at
/// construction (languages in this problem domain are small — queries, not
/// data). Every analysis, and RPQ evaluation, reads it.
class Language {
 public:
  /// Parses the paper's regex syntax, e.g. "ax*b|cxd".
  static Result<Language> FromRegexString(const std::string& regex);
  /// Like FromRegexString but aborts on parse failure (for literals).
  static Language MustFromRegexString(const std::string& regex);
  static Language FromRegex(const Regex& regex);
  static Language FromEnfa(const Enfa& enfa);
  static Language FromDfa(const Dfa& dfa);
  /// Finite language given by an explicit word list.
  static Language FromWords(const std::vector<std::string>& words);

  /// Minimal complete DFA for L.
  const Dfa& min_dfa() const { return min_dfa_; }

  /// Letters that occur in at least one word of L, sorted. This is the
  /// paper's working alphabet Σ (unused letters are irrelevant to all
  /// properties studied).
  const std::vector<char>& used_letters() const { return used_letters_; }

  bool Contains(const std::string& word) const {
    return min_dfa_.Accepts(word);
  }
  bool IsEmpty() const;
  bool ContainsEpsilon() const;
  bool IsFinite() const;

  /// Words of a finite language, sorted by (length, lex).
  /// FailedPrecondition if infinite.
  Result<std::vector<std::string>> Words(size_t max_words = 1 << 20) const;

  /// Accepted words of length <= max_length, sorted by (length, lex).
  Result<std::vector<std::string>> WordsUpTo(int max_length,
                                             size_t max_words = 1
                                                                << 20) const;

  /// Shortest word, or nullopt if empty.
  std::optional<std::string> ShortestWord() const;

  /// The mirror language L^R (Prp 6.3).
  Language Mirror() const;

  /// True iff this and other denote the same language.
  bool EquivalentTo(const Language& other) const;

  /// Display string: the regex this language was built from, or a word list
  /// for small finite languages, or a state-count placeholder.
  const std::string& description() const { return description_; }
  void set_description(std::string description) {
    description_ = std::move(description);
  }

 private:
  Language(Dfa min_dfa, std::string description);

  Dfa min_dfa_;
  std::vector<char> used_letters_;
  std::string description_;
};

}  // namespace rpqres

#endif  // RPQRES_LANG_LANGUAGE_H_
