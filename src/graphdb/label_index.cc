#include "graphdb/label_index.h"

#include <utility>

namespace rpqres {

std::shared_ptr<const LabelIndex::PerLabel> LabelIndex::BuildEntry(
    const GraphDb& db, std::vector<FactId> facts) {
  auto entry = std::make_shared<PerLabel>();
  const int num_nodes = db.num_nodes();
  entry->facts = std::move(facts);
  // Per-label CSR over source / target nodes, by counting sort (facts are
  // visited in ascending id order, so each per-node slice is ascending).
  entry->source_offset.assign(num_nodes + 1, 0);
  entry->target_offset.assign(num_nodes + 1, 0);
  for (FactId f : entry->facts) {
    ++entry->source_offset[db.fact(f).source + 1];
    ++entry->target_offset[db.fact(f).target + 1];
  }
  for (int v = 0; v < num_nodes; ++v) {
    entry->source_offset[v + 1] += entry->source_offset[v];
    entry->target_offset[v + 1] += entry->target_offset[v];
  }
  entry->by_source.resize(entry->facts.size());
  entry->by_target.resize(entry->facts.size());
  std::vector<int32_t> src_cursor(entry->source_offset.begin(),
                                  entry->source_offset.end() - 1);
  std::vector<int32_t> tgt_cursor(entry->target_offset.begin(),
                                  entry->target_offset.end() - 1);
  for (FactId f : entry->facts) {
    entry->by_source[src_cursor[db.fact(f).source]++] = f;
    entry->by_target[tgt_cursor[db.fact(f).target]++] = f;
  }
  return entry;
}

void LabelIndex::InsertEntry(char label,
                             std::shared_ptr<const PerLabel> entry) {
  num_facts_ += static_cast<int64_t>(entry->facts.size());
  slot_[static_cast<unsigned char>(label)] =
      static_cast<int16_t>(per_label_.size());
  per_label_.push_back(std::move(entry));
  labels_.push_back(label);
}

LabelIndex::LabelIndex(const GraphDb& db) {
  slot_.fill(-1);
  // Ascending live fact ids per label.
  std::array<std::vector<FactId>, 256> facts_by_label;
  for (FactId f = 0; f < db.num_facts(); ++f) {
    if (!db.IsLive(f)) continue;
    facts_by_label[static_cast<unsigned char>(db.fact(f).label)].push_back(f);
  }
  for (int l = 0; l < 256; ++l) {
    if (facts_by_label[l].empty()) continue;
    InsertEntry(static_cast<char>(l),
                BuildEntry(db, std::move(facts_by_label[l])));
  }
  // InsertEntry visits labels in byte order, so labels_ is already sorted.
}

LabelIndex::LabelIndex(const GraphDb& db, const LabelIndex& parent,
                       const std::vector<char>& touched_labels,
                       FactId first_new_fact) {
  slot_.fill(-1);
  std::array<bool, 256> touched{};
  for (char label : touched_labels) {
    touched[static_cast<unsigned char>(label)] = true;
  }
  // The delta's additions, ascending, per touched label. (Untouched
  // labels cannot gain or lose facts by definition of `touched_labels`.)
  std::array<std::vector<FactId>, 256> added;
  for (FactId f = first_new_fact; f < db.num_facts(); ++f) {
    if (!db.IsLive(f)) continue;
    added[static_cast<unsigned char>(db.fact(f).label)].push_back(f);
  }
  for (int l = 0; l < 256; ++l) {
    char label = static_cast<char>(l);
    int16_t parent_slot = parent.slot_[l];
    if (!touched[l]) {
      if (parent_slot >= 0) {
        ++shared_labels_;
        InsertEntry(label, parent.per_label_[parent_slot]);
      }
      continue;
    }
    // Rebuild: the parent's facts that survived the delta, then the
    // delta's additions (ids strictly larger — ascending overall).
    std::vector<FactId> facts;
    if (parent_slot >= 0) {
      for (FactId f : parent.per_label_[parent_slot]->facts) {
        if (db.IsLive(f)) facts.push_back(f);
      }
    }
    facts.insert(facts.end(), added[l].begin(), added[l].end());
    if (facts.empty()) continue;  // every fact of this label was removed
    InsertEntry(label, BuildEntry(db, std::move(facts)));
  }
}

}  // namespace rpqres
