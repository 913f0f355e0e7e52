#include "workload/workload.h"

#include <algorithm>
#include <utility>

#include "lang/language.h"

namespace rpqres {
namespace workload {
namespace {

size_t IndexOfClass(QueryClass query_class) {
  for (size_t i = 0; i < kAllQueryClasses.size(); ++i) {
    if (kAllQueryClasses[i] == query_class) return i;
  }
  return 0;
}

}  // namespace

QueryClass QueryClassForSeed(uint64_t seed) {
  return kAllQueryClasses[seed % kAllQueryClasses.size()];
}

uint64_t SeedFor(uint64_t base_seed, QueryClass query_class, int index) {
  const uint64_t n = kAllQueryClasses.size();
  return (base_seed - base_seed % n) + static_cast<uint64_t>(index) * n +
         IndexOfClass(query_class);
}

Result<WorkloadInstance> MakeWorkloadInstance(uint64_t seed,
                                              const WorkloadOptions& options) {
  WorkloadInstance instance;
  instance.seed = seed;
  instance.query_class = QueryClassForSeed(seed);
  Rng rng(seed);
  RPQRES_ASSIGN_OR_RETURN(
      instance.query,
      GenerateQuery(&rng, instance.query_class, options.max_query_attempts));

  Language lang = Language::MustFromRegexString(instance.query.regex);

  // Database alphabet: the query's own letters, plus (usually) one
  // distractor letter the query never matches — purely-matching
  // alphabets miss deletion-irrelevant facts.
  std::vector<char> labels = lang.used_letters();
  if (labels.empty()) labels.push_back('a');
  if (rng.NextChance(2, 3)) {
    for (char candidate = 'a'; candidate <= 'g'; ++candidate) {
      if (!std::binary_search(labels.begin(), labels.end(), candidate)) {
        labels.push_back(candidate);
        break;
      }
    }
  }

  // Word-soup seeding: short words of L laid out as ready-made matches.
  std::vector<std::string> words;
  Result<std::vector<std::string>> short_words = lang.WordsUpTo(5, 16);
  if (short_words.ok() && !short_words->empty()) {
    words = *std::move(short_words);
  }

  instance.shape = kAllDbShapes[rng.NextBelow(kAllDbShapes.size())];
  instance.db = GenerateDb(&rng, instance.shape, labels, words, options.db);
  instance.semantics = rng.NextChance(1, 2) ? Semantics::kSet : Semantics::kBag;
  return instance;
}

std::string DescribeInstance(const WorkloadInstance& instance) {
  std::string out = "seed=" + std::to_string(instance.seed);
  out += " class=";
  out += QueryClassName(instance.query_class);
  out += " regex=" + instance.query.regex;
  out += " cell=";
  out += ComplexityClassName(instance.query.classification.complexity);
  out += " shape=";
  out += DbShapeName(instance.shape);
  out += " nodes=" + std::to_string(instance.db.num_nodes());
  out += " facts=" + std::to_string(instance.db.num_facts());
  out += instance.semantics == Semantics::kSet ? " semantics=set"
                                               : " semantics=bag";
  return out;
}

}  // namespace workload
}  // namespace rpqres
