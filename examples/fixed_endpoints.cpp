// rpqres example: fixed-endpoint resilience (extension beyond the paper).
//
// Section 8 of the paper leaves the non-Boolean setting (endpoints fixed)
// as future work. For *local* languages, Theorem 3.13's product network is
// endpoint-agnostic, so the same MinCut reduction answers: "what is the
// cheapest set of edges whose removal disconnects s from t along
// L-labeled walks?" — a labeled generalization of classic s-t MinCut.
//
// Scenario: a data-center fabric where packets must traverse an ingress
// (a), any number of switch hops (x), and an egress (b). Both queries go
// through the serving engine against one registered handle: the Boolean
// one ("no ax*b route anywhere") as a plain request, the targeted one
// ("no ax*b route from rack R1 to rack R9") by setting the request's
// fixed (source, target) endpoints — API v2 covers both.

#include <iostream>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/rpq_eval.h"
#include "graphdb/serialization.h"
#include "lang/language.h"
#include "util/rng.h"

using namespace rpqres;

int main() {
  Rng rng(4242);
  GraphDb graph = LayeredFlowDb(&rng, /*sources=*/3, /*layers=*/4,
                                /*width=*/4, /*sinks=*/3, /*density=*/0.5,
                                /*max_multiplicity=*/8);
  Language query = Language::MustFromRegexString("ax*b");

  // Pick the endpoints of one concrete existing route (the endpoints of a
  // shortest witness walk).
  std::optional<WitnessWalk> walk = ShortestWitnessWalk(graph, query);
  if (!walk || walk->empty()) {
    std::cerr << "generator produced a routeless fabric\n";
    return 1;
  }
  NodeId s = graph.fact(walk->front()).source;
  NodeId t = graph.fact(walk->back()).target;
  std::cout << "Fabric (" << graph.num_facts() << " links):\n"
            << SerializeGraphDb(graph) << "\n";

  DbRegistry registry;
  DbHandle db = registry.Register(graph, "fabric");  // copy: the final
                                                     // verification below
                                                     // reads `graph`
  ResilienceEngine engine;
  ResilienceResponse boolean = engine.Evaluate(
      {.regex = "ax*b", .db = db, .semantics = Semantics::kBag});
  ResilienceResponse targeted = engine.Evaluate({.regex = "ax*b",
                                                 .db = db,
                                                 .semantics = Semantics::kBag,
                                                 .source = s,
                                                 .target = t});
  if (!boolean.status.ok() || !targeted.status.ok()) {
    std::cerr << (boolean.status.ok() ? targeted.status : boolean.status)
              << "\n";
    return 1;
  }
  std::cout << "Boolean RES (kill every a·x*·b route):    "
            << boolean.result.value << " via " << boolean.result.algorithm
            << "\n";
  std::cout << "Fixed-endpoint RES (" << graph.node_name(s) << " → "
            << graph.node_name(t) << " only): " << targeted.result.value
            << " via " << targeted.result.algorithm << "\n";
  if (targeted.result.value > boolean.result.value) {
    std::cerr << "bug: targeted interdiction cannot cost more\n";
    return 1;
  }
  std::vector<bool> removed(graph.num_facts(), false);
  for (FactId f : targeted.result.contingency) removed[f] = true;
  bool still_routed = EvaluatesToTrueBetween(graph, LabelIndex(graph),
                                             query.min_dfa(), s, t, &removed);
  std::cout << "Route survives the targeted cut? "
            << (still_routed ? "YES (bug!)" : "no") << "\n";
  return still_routed ? 1 : 0;
}
