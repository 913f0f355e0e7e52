#include "lang/language.h"

#include <algorithm>

#include "automata/ops.h"
#include "automata/thompson.h"
#include "regex/parser.h"
#include "util/check.h"
#include "util/strings.h"

namespace rpqres {

Language::Language(Dfa min_dfa, std::string description)
    : min_dfa_(std::move(min_dfa)),
      used_letters_(UsedLetters(min_dfa_)),
      description_(std::move(description)) {}

Result<Language> Language::FromRegexString(const std::string& regex) {
  RPQRES_ASSIGN_OR_RETURN(Regex ast, ParseRegex(regex));
  Language lang = FromRegex(ast);
  lang.set_description(regex);
  return lang;
}

Language Language::MustFromRegexString(const std::string& regex) {
  Result<Language> result = FromRegexString(regex);
  RPQRES_CHECK_MSG(result.ok(), "MustFromRegexString(\"" + regex +
                                    "\"): " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

Language Language::FromRegex(const Regex& regex) {
  return Language(MinimalDfa(ThompsonEnfa(regex)), regex.ToString());
}

Language Language::FromEnfa(const Enfa& enfa) {
  return Language(MinimalDfa(enfa),
                  "<εNFA with " + std::to_string(enfa.num_states()) +
                      " states>");
}

Language Language::FromDfa(const Dfa& dfa) {
  return Language(Minimize(dfa),
                  "<DFA with " + std::to_string(dfa.num_states()) +
                      " states>");
}

Language Language::FromWords(const std::vector<std::string>& words) {
  Language lang = FromEnfa(EnfaFromWords(words));
  std::vector<std::string> shown;
  for (const std::string& w : words) shown.push_back(DisplayWord(w));
  lang.set_description(shown.empty() ? "∅" : Join(shown, "|"));
  return lang;
}

bool Language::IsEmpty() const { return DfaIsEmptyLanguage(min_dfa_); }

bool Language::ContainsEpsilon() const { return min_dfa_.Accepts(""); }

bool Language::IsFinite() const { return DfaIsFinite(min_dfa_); }

Result<std::vector<std::string>> Language::Words(size_t max_words) const {
  return EnumerateFiniteLanguage(min_dfa_, max_words);
}

Result<std::vector<std::string>> Language::WordsUpTo(int max_length,
                                                     size_t max_words) const {
  return WordsUpToLength(min_dfa_, max_length, max_words);
}

std::optional<std::string> Language::ShortestWord() const {
  return rpqres::ShortestWord(min_dfa_);
}

Language Language::Mirror() const {
  Language mirrored = FromEnfa(EnfaMirror(DfaToEnfa(min_dfa_)));
  mirrored.set_description("mirror(" + description_ + ")");
  return mirrored;
}

bool Language::EquivalentTo(const Language& other) const {
  return AreEquivalent(min_dfa_, other.min_dfa_);
}

}  // namespace rpqres
