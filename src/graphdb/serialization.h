// rpqres — graphdb/serialization: a line-oriented text format for graph
// databases, for saving instances from examples/benches and loading them
// back (or editing them by hand).
//
// Format (one fact per line, '#' comments, blank lines ignored):
//   <source> <label> <target> [multiplicity] [exo]
//   node <name>
// Node names are arbitrary whitespace-free tokens; labels are single
// characters; the optional trailing "exo" marks the fact exogenous. A
// "node <name>" line declares a node with no incident facts, so the full
// node set round-trips byte-identically (generator outputs can contain
// isolated nodes).

#ifndef RPQRES_GRAPHDB_SERIALIZATION_H_
#define RPQRES_GRAPHDB_SERIALIZATION_H_

#include <string>

#include "graphdb/graph_db.h"
#include "util/status.h"

namespace rpqres {

/// Renders `db` in the text format (round-trips through ParseGraphDb).
std::string SerializeGraphDb(const GraphDb& db);

/// Parses the text format; InvalidArgument with a line number on errors,
/// including a multiplicity outside [1, kMaxMultiplicity] once repeated
/// lines of one fact have accumulated.
Result<GraphDb> ParseGraphDb(const std::string& text);

}  // namespace rpqres

#endif  // RPQRES_GRAPHDB_SERIALIZATION_H_
