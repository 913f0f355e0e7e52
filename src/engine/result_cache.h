// rpqres — engine/result_cache: version-keyed resilience answer cache.
//
// The VCSP view of resilience (Bodirsky–Lutz–Semanišinová) treats
// RES(Q, db) as a pure function of the instance — which is exactly what
// makes answer caching sound once the database side has an immutable
// identity. DbRegistry v3 provides it: a (lineage, version) pair never
// changes meaning, so a resilience answer keyed by
//
//   (query fingerprint, lineage, version, semantics, endpoints)
//
// stays valid forever. The cache is a bounded, thread-safe LRU; entries
// for superseded versions age out under capacity pressure (they are never
// *wrong*, just cold), and EraseLineage offers explicit invalidation when
// a lineage is dropped. Requests that force a specific solver bypass the
// cache — a forced method is a routing experiment, not a lookup.

#ifndef RPQRES_ENGINE_RESULT_CACHE_H_
#define RPQRES_ENGINE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "graphdb/graph_db.h"
#include "resilience/result.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres {

/// The immutable identity of one cacheable instance. `source`/`target`
/// are -1 for Boolean (endpoint-free) requests.
struct ResultCacheKey {
  std::string regex;
  Semantics semantics = Semantics::kSet;
  uint64_t lineage = 0;
  uint32_t version = 0;
  NodeId source = -1;
  NodeId target = -1;

  auto operator<=>(const ResultCacheKey&) const = default;
};

/// Thread-safe LRU (key → answer). An answer is the ResilienceResult of
/// the solve that produced it, so a hit still reports what computed it
/// (algorithm, network sizes). Capacity 0 disables the cache (every
/// Lookup misses, Insert is a no-op). Holds no counters: callers learn
/// hits, misses, evictions and invalidations from the return values of
/// Lookup, Insert and Erase*. Bounded two ways:
/// by entry count (`capacity`) and — when `max_bytes` > 0 — by the
/// accounted byte footprint of the retained answers (witness sets
/// dominate: a contingency set can hold thousands of fact ids while
/// another entry holds two). Either bound evicts LRU-first; a single
/// over-budget entry is still admitted (the cache never thrashes down to
/// zero).
class ResultCache {
 public:
  explicit ResultCache(size_t capacity, size_t max_bytes = 0)
      : capacity_(capacity), max_bytes_(max_bytes) {}

  bool enabled() const { return capacity_ > 0; }
  size_t capacity() const { return capacity_; }
  size_t max_bytes() const { return max_bytes_; }

  /// Approximate heap footprint of one entry: the LRU node, the two key
  /// copies (list + index), the witness contingency set, and the owned
  /// strings (the key's regex and the result's algorithm). The basis of
  /// the byte budget and the cache-bytes gauge.
  static size_t EntryFootprintBytes(const ResultCacheKey& key,
                                    const ResilienceResult& value);

  /// The cached answer, marked most-recently-used; nullopt on miss.
  std::optional<ResilienceResult> Lookup(const ResultCacheKey& key)
      RPQRES_EXCLUDES(mu_);

  /// Inserts (or refreshes) the answer, evicting LRU entries while over
  /// the entry or byte budget. Returns how many entries were evicted.
  size_t Insert(ResultCacheKey key, ResilienceResult value)
      RPQRES_EXCLUDES(mu_);

  /// Drops every entry of `lineage` (all versions); returns the count.
  int64_t EraseLineage(uint64_t lineage) RPQRES_EXCLUDES(mu_);
  /// Drops every entry of one (lineage, version); returns the count.
  int64_t EraseVersion(uint64_t lineage, uint32_t version)
      RPQRES_EXCLUDES(mu_);

  size_t size() const RPQRES_EXCLUDES(mu_);
  /// Accounted bytes across all retained entries (the cache-bytes gauge).
  size_t size_bytes() const RPQRES_EXCLUDES(mu_);

 private:
  struct Entry {
    ResultCacheKey key;
    ResilienceResult value;
    size_t bytes = 0;  ///< EntryFootprintBytes at insertion time
  };

  int64_t EraseMatching(uint64_t lineage, std::optional<uint32_t> version)
      RPQRES_REQUIRES(mu_);
  void PopLru() RPQRES_REQUIRES(mu_);

  mutable Mutex mu_;
  const size_t capacity_;   // immutable after construction
  const size_t max_bytes_;  // immutable after construction
  size_t bytes_ RPQRES_GUARDED_BY(mu_) = 0;
  std::list<Entry> lru_ RPQRES_GUARDED_BY(mu_);  // front = most recently used
  std::map<ResultCacheKey, std::list<Entry>::iterator> index_
      RPQRES_GUARDED_BY(mu_);
};

}  // namespace rpqres

#endif  // RPQRES_ENGINE_RESULT_CACHE_H_
