#include "graphdb/serialization.h"

#include <sstream>
#include <vector>

#include "util/strings.h"

namespace rpqres {

std::string SerializeGraphDb(const GraphDb& db) {
  std::ostringstream os;
  os << "# rpqres graph database: " << db.num_nodes() << " nodes, "
     << db.num_live_facts() << " facts\n";
  // Isolated nodes carry no fact line; declare them explicitly so the
  // node set (and the header count) round-trips. Counting live facts only
  // makes this (and the fact listing below) identical for a versioned
  // overlay and its compacted flat twin — the byte-equality the
  // delta-equivalence suite pins down.
  std::vector<bool> has_fact(db.num_nodes(), false);
  for (FactId f = 0; f < db.num_facts(); ++f) {
    if (!db.IsLive(f)) continue;
    has_fact[db.fact(f).source] = true;
    has_fact[db.fact(f).target] = true;
  }
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    if (!has_fact[v]) os << "node " << db.node_name(v) << "\n";
  }
  for (FactId f = 0; f < db.num_facts(); ++f) {
    if (!db.IsLive(f)) continue;
    const Fact& fact = db.fact(f);
    os << db.node_name(fact.source) << " " << fact.label << " "
       << db.node_name(fact.target);
    if (db.multiplicity(f) != 1 || db.IsExogenous(f)) {
      os << " " << db.multiplicity(f);
    }
    if (db.IsExogenous(f)) os << " exo";
    os << "\n";
  }
  return os.str();
}

Result<GraphDb> ParseGraphDb(const std::string& text) {
  GraphDb db;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  auto error = [&line_number](const std::string& message) {
    return Status::InvalidArgument("graph db parse error at line " +
                                   std::to_string(line_number) + ": " +
                                   message);
  };
  while (std::getline(stream, line)) {
    ++line_number;
    // Strip comments.
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    std::string source, label, target;
    if (!(fields >> source)) continue;  // blank line
    // Isolated-node declaration: exactly "node <name>" (a fact line has
    // >= 3 tokens, so a node *named* "node" stays unambiguous).
    if (source == "node") {
      std::string name, extra;
      if ((fields >> name) && !(fields >> extra)) {
        db.GetOrAddNode(name);
        continue;
      }
      fields = std::istringstream(line);
      fields >> source;
    }
    if (!(fields >> label >> target)) {
      return error("expected '<source> <label> <target>'");
    }
    if (label.size() != 1) {
      return error("label must be a single character, got '" + label +
                   "'");
    }
    Capacity multiplicity = 1;
    bool exogenous = false;
    std::string token;
    if (fields >> token) {
      if (token == "exo") {
        exogenous = true;
      } else {
        try {
          multiplicity = std::stoll(token);
        } catch (...) {
          return error("bad multiplicity '" + token + "'");
        }
        if (multiplicity < 1 || multiplicity > kMaxMultiplicity) {
          return error("multiplicity must be in [1, " +
                       std::to_string(kMaxMultiplicity) + "]");
        }
        if (fields >> token) {
          if (token != "exo") return error("unexpected token '" + token +
                                           "'");
          exogenous = true;
        }
      }
    }
    if (fields >> token) return error("unexpected token '" + token + "'");
    const NodeId source_id = db.GetOrAddNode(source);
    const NodeId target_id = db.GetOrAddNode(target);
    // A repeated fact accumulates its multiplicity; bound the total too.
    if (FactId seen = db.FindFact(source_id, label[0], target_id);
        seen >= 0 && db.multiplicity(seen) > kMaxMultiplicity - multiplicity) {
      return error("accumulated multiplicity exceeds " +
                   std::to_string(kMaxMultiplicity));
    }
    FactId id = db.AddFact(source_id, label[0], target_id, multiplicity);
    if (exogenous) db.SetExogenous(id);
  }
  return db;
}

}  // namespace rpqres
