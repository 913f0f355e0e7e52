#include "resilience/bcl_resilience.h"

#include <algorithm>
#include <map>
#include <optional>

#include "flow/residual_graph.h"
#include "flow/solver_scratch.h"
#include "lang/chain.h"
#include "obs/trace.h"
#include "util/check.h"

namespace rpqres {

namespace {

constexpr const char* kAlgorithm = "bipartite chain flow (Prp 7.6)";

// The letters marked in `marked`, ascending as unsigned chars.
std::vector<char> MarkedLetters(const std::array<bool, 256>& marked) {
  std::vector<char> letters;
  for (int l = 0; l < 256; ++l) {
    if (marked[l]) letters.push_back(static_cast<char>(l));
  }
  return letters;
}

}  // namespace

Result<BclTables> BuildBclTables(const Language& ifl) {
  ChainAnalysis chain = AnalyzeChain(ifl);
  if (!chain.is_chain) {
    return Status::FailedPrecondition("is not a chain language: " +
                                      chain.violation);
  }
  // Preprocessing (proof of Prp 7.6): single-letter words force the removal
  // of every fact with that label. In the infix-free language, such a
  // letter occurs in no other word, so those facts are inert afterwards.
  std::array<bool, 256> forced{};
  std::array<bool, 256> relevant{};
  std::vector<std::string> long_words;
  for (const std::string& w : chain.words) {
    RPQRES_CHECK_MSG(!w.empty(), "BuildBclTables: ε ∈ IF(L)");
    if (w.size() == 1) {
      forced[static_cast<unsigned char>(w[0])] = true;
    } else {
      long_words.push_back(w);
      for (char c : w) relevant[static_cast<unsigned char>(c)] = true;
    }
  }
  // Bipartition of the endpoint graph (Def 7.2): 0 = source partition,
  // 1 = target partition.
  std::optional<std::map<char, int>> coloring =
      BipartitionEndpointGraph(BuildEndpointGraph(long_words));
  if (!coloring) {
    return Status::FailedPrecondition("has an endpoint graph that is not "
                                      "bipartite");
  }
  BclTables tables;
  tables.forced_labels = MarkedLetters(forced);
  tables.relevant_labels = MarkedLetters(relevant);
  tables.endpoint_side.fill(-1);
  for (std::string& w : long_words) {
    const int front = coloring->at(w.front());
    tables.endpoint_side[static_cast<unsigned char>(w.front())] =
        static_cast<int8_t>(front);
    tables.endpoint_side[static_cast<unsigned char>(w.back())] =
        static_cast<int8_t>(coloring->at(w.back()));
    // A word is *forward* if its first letter lies in the source
    // partition (then its last letter is in the target partition since
    // the coloring is proper), *reversed* otherwise.
    tables.long_words.push_back({std::move(w), front == 0});
  }
  return tables;
}

ResilienceResult SolveBclWithTables(const BclTables& tables, const GraphDb& db,
                                    Semantics semantics,
                                    const LabelIndex* label_index,
                                    SolverScratch* scratch) {
  if (scratch == nullptr) scratch = &SolverScratch::ThreadLocal();
  ResilienceResult result;
  result.algorithm = kAlgorithm;
  std::optional<LabelIndex> built;
  const LabelIndex& index =
      label_index != nullptr ? *label_index : built.emplace(db);

  obs::TraceContext* trace = scratch->trace;
  obs::ScopedSpan build_span(trace, obs::SpanKind::kFlowBuild);
  Capacity forced_cost = 0;
  for (char label : tables.forced_labels) {
    for (FactId f : index.Facts(label)) {
      if (db.IsExogenous(f)) {
        // A single-letter-word match on an undeletable fact: the query
        // cannot be falsified.
        result.infinite = true;
        result.contingency.clear();
        return result;
      }
      forced_cost += db.Cost(f, semantics);
      result.contingency.push_back(f);
    }
  }
  if (tables.long_words.empty()) {
    result.value = forced_cost;
    std::sort(result.contingency.begin(), result.contingency.end());
    return result;
  }

  // Network: one finite fact edge per relevant fact, from its start vertex
  // to its end vertex, staged directly into the scratch's residual graph.
  // Prp 7.6 hooks the start vertex of every fact whose letter lies in the
  // source partition to the source by an infinite edge, which puts it on
  // the source side of every finite cut; so such a fact starts at the
  // source itself. Likewise a fact whose letter lies in the target
  // partition ends at the target. Fact edges come first, so edge id ==
  // index into fact_of_edge.
  ResidualGraph& network = scratch->graph;
  network.Reset(2);
  network.SetSource(0);
  network.SetTarget(1);
  auto& start_of = scratch->start_of;
  auto& end_of = scratch->end_of;
  start_of.assign(db.num_facts(), -1);
  end_of.assign(db.num_facts(), -1);
  auto& fact_of_edge = scratch->fact_of_edge;
  fact_of_edge.clear();
  for (char label : tables.relevant_labels) {
    const int side = tables.endpoint_side[static_cast<unsigned char>(label)];
    for (FactId f : index.Facts(label)) {
      start_of[f] = side == 0 ? 0 : network.AddVertex();
      end_of[f] = side == 1 ? 1 : network.AddVertex();
      int32_t edge =
          network.AddEdge(start_of[f], end_of[f], db.Cost(f, semantics));
      RPQRES_CHECK(edge == static_cast<int32_t>(fact_of_edge.size()));
      fact_of_edge.push_back(f);
    }
  }

  // Word wiring, by each word's orientation. Each adjacent letter pair
  // (c1, c2) joins on the shared node — target of the c1-fact == source
  // of the c2-fact — through the index's source CSR, so the wiring is
  // output-linear: O(|A| + emitted edges) per pair, never the all-pairs
  // |A|·|B| scan. Every letter of a long word was staged above: IF(L) is
  // infix-free, so no single-letter word's letter occurs in a longer word.
  // No edge into the source or out of the target is staged: none can
  // cross a cut.
  for (const BclTables::Word& word : tables.long_words) {
    const std::string& w = word.letters;
    for (size_t i = 0; i + 1 < w.size(); ++i) {
      for (FactId f1 : index.Facts(w[i])) {
        for (FactId f2 : index.FactsFrom(w[i + 1], db.fact(f1).target)) {
          const int32_t from = end_of[word.forward ? f1 : f2];
          const int32_t to = start_of[word.forward ? f2 : f1];
          if (from != 1 && to != 0) {
            network.AddEdge(from, to, kInfiniteCapacity);
          }
        }
      }
    }
  }
  build_span.End();

  const MinCutView& cut = network.Solve(trace);
  if (cut.infinite) {
    // Some match consists of exogenous facts only.
    result.infinite = true;
    result.contingency.clear();
    return result;
  }
  obs::ScopedSpan cut_span(trace, obs::SpanKind::kCutExtract);
  result.value = forced_cost + cut.value;
  result.contingency.reserve(result.contingency.size() + cut.cut_edges.size());
  for (int32_t edge : cut.cut_edges) {
    RPQRES_CHECK_MSG(
        edge >= 0 && edge < static_cast<int32_t>(fact_of_edge.size()),
        "cut contains a non-fact edge");
    result.contingency.push_back(fact_of_edge[edge]);
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());
  result.network_vertices = network.num_vertices();
  result.network_edges = network.num_edges();
  return result;
}

}  // namespace rpqres
