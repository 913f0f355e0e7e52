// rpqres example: classify the resilience complexity of RPQ languages
// (the Figure 1 pipeline), going through the engine's Compile entry
// point — the same artifact the serving path caches (parse, minimal DFA,
// classification, solver plan), so what prints here is exactly what a
// ResilienceRequest for the regex would execute. Pass regexes as
// arguments, or run without arguments to classify the 22 example
// languages of the paper's Figure 1, in its order.

#include <iostream>
#include <memory>
#include <vector>

#include "classify/classifier.h"
#include "engine/engine.h"
#include "lang/language.h"

using namespace rpqres;

int main(int argc, char** argv) {
  std::vector<std::string> regexes;
  for (int i = 1; i < argc; ++i) regexes.push_back(argv[i]);
  if (regexes.empty()) {
    regexes = {"abc|abd",    "ab|ad|cd", "ax*b",     "ab|bc",
               "axb|byc",    "abc|be",   "abcd|ce",  "abcd|be",
               "ax*b|xd",    "axb|cxd",  "ax*b|cxd", "b(aa)*d",
               "aa",         "aaaa",     "abca|cab", "ab|bc|ca",
               "abcd|be|ef", "abcd|bef", "abc|bcd",  "abc|bef",
               "ab*c|ba",    "ab*d|ac*d|bc"};
  }
  ResilienceEngine engine;
  for (const std::string& regex : regexes) {
    Result<std::shared_ptr<const CompiledQuery>> compiled =
        engine.Compile(regex, Semantics::kSet);
    if (!compiled.ok()) {
      std::cerr << regex << ": " << compiled.status() << "\n";
      continue;
    }
    const CompiledQuery& query = **compiled;
    std::cout << ClassificationReport(query.language, query.classification)
              << "\n";
  }
  EngineStats stats = engine.stats();
  std::cout << "(" << stats.cache_misses << " compiled, " << stats.cache_hits
            << " plan-cache hits)\n";
  return 0;
}
