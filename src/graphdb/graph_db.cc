#include "graphdb/graph_db.h"

#include <algorithm>
#include <bit>
#include <random>
#include <sstream>

#include "util/check.h"

namespace rpqres {
namespace {

// murmur3's 64-bit finalizer: a bijection that spreads every input bit.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Hash of a fact key for the key table, keyed by a seed drawn once per
// process: without it a crafted database text or segment could pick keys
// that share one long probe chain. The table's layout never reaches an
// answer, an id or a file, so the seed changes no output.
uint64_t KeyHash(NodeId source, char label, NodeId target) {
  static const uint64_t seed = [] {
    std::random_device device;
    return uint64_t{device()} << 32 ^ device();
  }();
  const uint64_t endpoints = uint64_t{static_cast<uint32_t>(source)} << 32 |
                             static_cast<uint32_t>(target);
  return Mix64(Mix64(endpoints ^ seed) ^ static_cast<unsigned char>(label));
}

}  // namespace

NodeId GraphDb::AddNode() {
  return AddNode("n" + std::to_string(num_nodes()));
}

NodeId GraphDb::AddNode(const std::string& name) {
  NodeId id = static_cast<NodeId>(num_nodes());
  node_names_.push_back(name);
  return id;
}

NodeId GraphDb::GetOrAddNode(const std::string& name) {
  if (base_ != nullptr) {
    auto base_it = base_->nodes_by_name_.find(name);
    if (base_it != base_->nodes_by_name_.end()) return base_it->second;
  }
  auto it = nodes_by_name_.find(name);
  if (it != nodes_by_name_.end()) return it->second;
  NodeId id = AddNode(name);
  nodes_by_name_[name] = id;
  return id;
}

bool GraphDb::LookupMultOverride(FactId id, Capacity* value) const {
  auto it = std::lower_bound(
      mult_override_.begin(), mult_override_.end(), id,
      [](const std::pair<FactId, Capacity>& entry, FactId key) {
        return entry.first < key;
      });
  if (it == mult_override_.end() || it->first != id) return false;
  *value = it->second;
  return true;
}

size_t GraphDb::ProbeKey(NodeId source, char label, NodeId target) const {
  const Fact key{source, label, target};
  const size_t mask = key_slots_.size() - 1;
  for (size_t slot = KeyHash(source, label, target) & mask;;
       slot = (slot + 1) & mask) {
    const FactId id = key_slots_[slot];
    if (id < 0 || (facts_[id - base_facts_] == key && IsLive(id))) {
      return slot;
    }
  }
}

void GraphDb::RegrowKeySlots() {
  size_t live = 0;
  for (FactId id = base_facts_; id < num_facts(); ++id) live += IsLive(id);
  key_slots_.assign(std::max<size_t>(16, std::bit_ceil(4 * live)), -1);
  key_slots_used_ = 0;
  for (FactId id = base_facts_; id < num_facts(); ++id) {
    if (!IsLive(id)) continue;
    const Fact& f = facts_[id - base_facts_];
    key_slots_[ProbeKey(f.source, f.label, f.target)] = id;
    ++key_slots_used_;
  }
}

FactId GraphDb::AddFact(NodeId source, char label, NodeId target,
                        Capacity multiplicity) {
  RPQRES_DCHECK(source >= 0 && source < num_nodes());
  RPQRES_DCHECK(target >= 0 && target < num_nodes());
  RPQRES_CHECK_MSG(multiplicity >= 1 && multiplicity <= kMaxMultiplicity,
                   "fact multiplicity must be in [1, kMaxMultiplicity]");
  // A duplicate accumulates, and the total obeys the same bound.
  auto bumped = [multiplicity](Capacity current) {
    RPQRES_CHECK_MSG(multiplicity <= kMaxMultiplicity - current,
                     "accumulated fact multiplicity exceeds kMaxMultiplicity");
    return current + multiplicity;
  };
  // Live-duplicate detection: own facts first, then the base (a
  // tombstoned fact does NOT merge — a re-add is a new fact at the end of
  // the id space, matching what a from-scratch rebuild does).
  size_t slot = 0;
  if (!key_slots_.empty()) {
    slot = ProbeKey(source, label, target);
    if (const FactId id = key_slots_[slot]; id >= 0) {
      Capacity& stored = multiplicities_[id - base_facts_];
      stored = bumped(stored);
      return id;
    }
  }
  if (base_ != nullptr) {
    FactId base_id = base_->FindFact(source, label, target);
    if (base_id >= 0 && IsLive(base_id)) {
      auto pos = std::lower_bound(
          mult_override_.begin(), mult_override_.end(), base_id,
          [](const std::pair<FactId, Capacity>& entry, FactId k) {
            return entry.first < k;
          });
      if (pos != mult_override_.end() && pos->first == base_id) {
        pos->second = bumped(pos->second);
      } else {
        mult_override_.insert(
            pos, {base_id, bumped(base_->multiplicity(base_id))});
      }
      return base_id;
    }
  }
  if (2 * (static_cast<size_t>(key_slots_used_) + 1) > key_slots_.size()) {
    RegrowKeySlots();
    slot = ProbeKey(source, label, target);
  }
  FactId id = static_cast<FactId>(num_facts());
  facts_.push_back(Fact{source, label, target});
  multiplicities_.push_back(multiplicity);
  exogenous_.push_back(false);
  if (!dead_.empty()) dead_.push_back(0);
  key_slots_[slot] = id;
  ++key_slots_used_;
  return id;
}

void GraphDb::SetExogenous(FactId id, bool exogenous) {
  RPQRES_DCHECK(id >= 0 && id < num_facts());
  RPQRES_CHECK_MSG(id >= base_facts_,
                   "SetExogenous: base facts of an overlay are immutable");
  exogenous_[id - base_facts_] = exogenous;
}

int GraphDb::NumExogenous() const {
  int count = 0;
  for (FactId f = 0; f < num_facts(); ++f) {
    if (IsLive(f) && IsExogenous(f)) ++count;
  }
  return count;
}

FactId GraphDb::FindFact(NodeId source, char label, NodeId target) const {
  if (!key_slots_.empty()) {
    const FactId id = key_slots_[ProbeKey(source, label, target)];
    if (id >= 0) return id;
  }
  if (base_ != nullptr) {
    FactId base_id = base_->FindFact(source, label, target);
    if (base_id >= 0 && IsLive(base_id)) return base_id;
  }
  return -1;
}

Capacity GraphDb::TotalCost(Semantics semantics) const {
  Capacity total = 0;
  for (FactId id = 0; id < num_facts(); ++id) {
    if (IsLive(id) && !IsExogenous(id)) total += Cost(id, semantics);
  }
  return total;
}

std::vector<char> GraphDb::Labels() const {
  std::vector<char> labels;
  for (FactId f = 0; f < num_facts(); ++f) {
    if (IsLive(f)) labels.push_back(fact(f).label);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

GraphDb GraphDb::MakeOverlay(std::shared_ptr<const GraphDb> parent) {
  RPQRES_CHECK_MSG(parent != nullptr, "MakeOverlay: null parent");
  GraphDb out;
  if (parent->base_ == nullptr) {
    out.base_ = std::move(parent);
  } else {
    // Same flat base; the parent's overlay is the starting point.
    const GraphDb& p = *parent;
    out.base_ = p.base_;
    out.node_names_ = p.node_names_;
    out.facts_ = p.facts_;
    out.multiplicities_ = p.multiplicities_;
    out.exogenous_ = p.exogenous_;
    out.nodes_by_name_ = p.nodes_by_name_;
    out.key_slots_ = p.key_slots_;
    out.key_slots_used_ = p.key_slots_used_;
    out.num_dead_ = p.num_dead_;
    out.dead_ = p.dead_;
    out.mult_override_ = p.mult_override_;
  }
  out.base_nodes_ = out.base_->num_nodes();
  out.base_facts_ = out.base_->num_facts();
  return out;
}

Status GraphDb::RemoveFact(NodeId source, char label, NodeId target) {
  if (base_ == nullptr) {
    return Status::FailedPrecondition(
        "RemoveFact: only overlay databases support in-place removal "
        "(use RemoveFacts on a flat database)");
  }
  FactId id = FindFact(source, label, target);
  if (id < 0) {
    return Status::NotFound("RemoveFact: no live fact " +
                            std::to_string(source) + " -" + label + "-> " +
                            std::to_string(target));
  }
  if (dead_.empty()) dead_.assign(num_facts(), 0);
  dead_[id] = 1;
  ++num_dead_;
  // A dead own fact stays in key_slots_, where lookups skip it.
  if (id < base_facts_) {
    // A dead base fact needs no override; drop it so a later re-add
    // starts from a clean slate.
    auto it = std::lower_bound(
        mult_override_.begin(), mult_override_.end(), id,
        [](const std::pair<FactId, Capacity>& entry, FactId key) {
          return entry.first < key;
        });
    if (it != mult_override_.end() && it->first == id) {
      mult_override_.erase(it);
    }
  }
  return Status::OK();
}

GraphDb GraphDb::Compact(std::vector<FactId>* old_id_of) const {
  GraphDb out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    out.AddNode(node_name(v));
  }
  out.nodes_by_name_ =
      base_ != nullptr ? base_->nodes_by_name_ : nodes_by_name_;
  if (base_ != nullptr) {
    for (const auto& [name, id] : nodes_by_name_) {
      out.nodes_by_name_.emplace(name, id);
    }
  }
  if (old_id_of != nullptr) {
    old_id_of->clear();
    old_id_of->reserve(num_live_facts());
  }
  for (FactId f = 0; f < num_facts(); ++f) {
    if (!IsLive(f)) continue;
    const Fact& fct = fact(f);
    FactId id =
        out.AddFact(fct.source, fct.label, fct.target, multiplicity(f));
    if (IsExogenous(f)) out.SetExogenous(id);
    if (old_id_of != nullptr) old_id_of->push_back(f);
  }
  return out;
}

GraphDb GraphDb::RemoveFacts(const std::vector<FactId>& fact_ids) const {
  RPQRES_CHECK_MSG(base_ == nullptr,
                   "RemoveFacts: Compact() an overlay database first");
  std::vector<bool> removed(num_facts(), false);
  for (FactId id : fact_ids) {
    RPQRES_DCHECK(id >= 0 && id < num_facts());
    removed[id] = true;
  }
  GraphDb out;
  for (NodeId v = 0; v < num_nodes(); ++v) out.AddNode(node_name(v));
  out.nodes_by_name_ = nodes_by_name_;
  for (FactId id = 0; id < num_facts(); ++id) {
    if (!removed[id]) {
      const Fact& f = fact(id);
      FactId copy = out.AddFact(f.source, f.label, f.target, multiplicity(id));
      if (IsExogenous(id)) out.SetExogenous(copy);
    }
  }
  return out;
}

GraphDb GraphDb::MirrorDb() const {
  RPQRES_CHECK_MSG(base_ == nullptr,
                   "MirrorDb: Compact() an overlay database first");
  GraphDb out;
  for (NodeId v = 0; v < num_nodes(); ++v) out.AddNode(node_name(v));
  out.nodes_by_name_ = nodes_by_name_;
  for (FactId id = 0; id < num_facts(); ++id) {
    const Fact& f = fact(id);
    FactId copy = out.AddFact(f.target, f.label, f.source, multiplicity(id));
    if (IsExogenous(id)) out.SetExogenous(copy);
  }
  return out;
}

std::string GraphDb::ToString() const {
  std::ostringstream os;
  for (FactId id = 0; id < num_facts(); ++id) {
    if (!IsLive(id)) continue;
    const Fact& f = fact(id);
    os << node_name(f.source) << " -" << f.label << "-> "
       << node_name(f.target);
    if (multiplicity(id) != 1) os << " [x" << multiplicity(id) << "]";
    os << "\n";
  }
  return os.str();
}

}  // namespace rpqres
