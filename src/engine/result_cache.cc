#include "engine/result_cache.h"

namespace rpqres {

namespace {

size_t StringBytes(const std::string& s) {
  // Short strings live inline; only spilled buffers cost heap.
  return s.capacity() > sizeof(std::string) ? s.capacity() + 1 : 0;
}

}  // namespace

size_t ResultCache::EntryFootprintBytes(const ResultCacheKey& key,
                                        const ResilienceResult& value) {
  // The list node plus the index node (which re-copies the key). Node
  // headers are approximated as three pointers each.
  size_t bytes = sizeof(Entry) + 3 * sizeof(void*);  // list node
  // Index node: rb-tree header (3 pointers + color) + key copy + iterator.
  bytes += sizeof(ResultCacheKey) + 4 * sizeof(void*) +
           sizeof(std::list<Entry>::iterator);
  bytes += 2 * StringBytes(key.regex);  // both key copies
  // The witness set is the dominant variable-size component.
  bytes += value.contingency.capacity() * sizeof(FactId);
  bytes += StringBytes(value.algorithm);
  return bytes;
}

std::optional<ResilienceResult> ResultCache::Lookup(
    const ResultCacheKey& key) {
  if (!enabled()) return std::nullopt;
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void ResultCache::PopLru() {
  bytes_ -= lru_.back().bytes;
  index_.erase(lru_.back().key);
  lru_.pop_back();
}

size_t ResultCache::Insert(ResultCacheKey key, ResilienceResult value) {
  if (!enabled()) return 0;
  const size_t footprint = EntryFootprintBytes(key, value);
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ += footprint - it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = footprint;
    lru_.splice(lru_.begin(), lru_, it->second);
    return 0;
  }
  lru_.push_front(Entry{std::move(key), std::move(value), footprint});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += footprint;
  size_t evicted = 0;
  while (lru_.size() > capacity_) {
    PopLru();
    ++evicted;
  }
  // Byte budget: keep evicting LRU-first, but always retain at least the
  // entry just inserted (a single oversized answer is admitted rather
  // than bouncing forever).
  while (max_bytes_ > 0 && bytes_ > max_bytes_ && lru_.size() > 1) {
    PopLru();
    ++evicted;
  }
  return evicted;
}

int64_t ResultCache::EraseMatching(uint64_t lineage,
                                   std::optional<uint32_t> version) {
  MutexLock lock(mu_);
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.lineage == lineage &&
        (!version.has_value() || it->key.version == *version)) {
      bytes_ -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

int64_t ResultCache::EraseLineage(uint64_t lineage) {
  return EraseMatching(lineage, std::nullopt);
}

int64_t ResultCache::EraseVersion(uint64_t lineage, uint32_t version) {
  return EraseMatching(lineage, version);
}

size_t ResultCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

size_t ResultCache::size_bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

}  // namespace rpqres
