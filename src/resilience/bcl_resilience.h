// rpqres — resilience/bcl_resilience: Proposition 7.6.
//
// RES_bag(L) for bipartite chain languages, by a flow network with one
// start/end vertex pair per fact: forward words are wired left-to-right
// and reversed words right-to-left according to the bipartition of the
// endpoint graph, so that every match is a source-target path and every
// source-target path is a match. A fact whose letter lies in the source
// partition starts at the source itself, and one whose letter lies in the
// target partition ends at the target, in place of the proof's infinite
// hookup edges. Runs in Õ(|A|·|D|²·|Σ|²).
//
// All language work — IF(L), the chain analysis, the endpoint graph and
// its bipartition — depends on L alone, so BuildBclTables does it once
// (the planner stores the result in ResiliencePlan::bcl_tables) and a
// solve only reads the tables and the database's LabelIndex.

#ifndef RPQRES_RESILIENCE_BCL_RESILIENCE_H_
#define RPQRES_RESILIENCE_BCL_RESILIENCE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/result.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// The solver-ready view of one bipartite chain language.
struct BclTables {
  /// Letters of the single-letter words, ascending: every fact with such
  /// a label is a match on its own and joins the contingency set.
  std::vector<char> forced_labels;
  /// Letters of the long words (length >= 2), ascending: the labels whose
  /// facts get a network edge.
  std::vector<char> relevant_labels;
  /// Partition side of each endpoint letter of a long word: 0 = source
  /// partition, 1 = target partition, -1 = not an endpoint letter.
  std::array<int8_t, 256> endpoint_side;
  /// A long word and its orientation: forward iff its first letter lies
  /// in the source partition (it is then wired left-to-right).
  struct Word {
    std::string letters;
    bool forward = true;
  };
  std::vector<Word> long_words;
};

/// Derives the tables from an infix-free language without ε (IF(L) of the
/// query); FailedPrecondition when it is not a bipartite chain language.
Result<BclTables> BuildBclTables(const Language& ifl);

/// Solves RES(Q_L, D) from tables built for IF(L). Every fact visit goes
/// through `label_index` (built from `db`), restricted to the labels the
/// chain words use; when it is null the call builds LabelIndex(db) once.
/// `scratch` (optional) supplies the reusable solver arena, defaulting to
/// the calling thread's shared scratch.
ResilienceResult SolveBclWithTables(const BclTables& tables, const GraphDb& db,
                                    Semantics semantics,
                                    const LabelIndex* label_index = nullptr,
                                    SolverScratch* scratch = nullptr);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_BCL_RESILIENCE_H_
