#include "engine/plan_cache.h"

#include <algorithm>

namespace rpqres {

PlanCache::PlanCache(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

std::shared_ptr<const CompiledQuery> PlanCache::Lookup(
    const std::string& regex, Semantics semantics) {
  MutexLock lock(mu_);
  auto it = index_.find(Key{regex, semantics});
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->second;
}

size_t PlanCache::Insert(std::shared_ptr<const CompiledQuery> query) {
  Key key{query->regex, query->semantics};
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(query);
    lru_.splice(lru_.begin(), lru_, it->second);
    return 0;
  }
  lru_.emplace_front(key, std::move(query));
  index_[key] = lru_.begin();
  size_t evicted = 0;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace rpqres
