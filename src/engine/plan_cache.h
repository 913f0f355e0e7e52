// rpqres — engine/plan_cache: LRU cache of compiled query plans.
//
// Keyed by (regex text, semantics). The cache stores
// shared_ptr<const CompiledQuery>, so an evicted plan stays alive for any
// instance still executing it; eviction only drops the cache's reference.

#ifndef RPQRES_ENGINE_PLAN_CACHE_H_
#define RPQRES_ENGINE_PLAN_CACHE_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "engine/compiled_query.h"
#include "graphdb/graph_db.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres {

/// Thread-safe LRU map (regex, semantics) → CompiledQuery. Holds no
/// counters: callers learn hits, misses and evictions from the return
/// values and count them where they count everything else.
class PlanCache {
 public:
  /// `capacity` = max resident plans; values < 1 are clamped to 1.
  explicit PlanCache(size_t capacity);

  /// Returns the cached plan and marks it most-recently-used, or nullptr
  /// on a miss.
  std::shared_ptr<const CompiledQuery> Lookup(const std::string& regex,
                                              Semantics semantics)
      RPQRES_EXCLUDES(mu_);

  /// Inserts (or replaces) the plan for its own (regex, semantics) key,
  /// evicting the least-recently-used entry when over capacity. Returns
  /// how many entries were evicted.
  size_t Insert(std::shared_ptr<const CompiledQuery> query)
      RPQRES_EXCLUDES(mu_);

  size_t size() const RPQRES_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  using Key = std::pair<std::string, Semantics>;
  using Entry = std::pair<Key, std::shared_ptr<const CompiledQuery>>;

  mutable Mutex mu_;
  const size_t capacity_;  // immutable after construction
  std::list<Entry> lru_ RPQRES_GUARDED_BY(mu_);  // front = most recently used
  std::map<Key, std::list<Entry>::iterator> index_ RPQRES_GUARDED_BY(mu_);
};

}  // namespace rpqres

#endif  // RPQRES_ENGINE_PLAN_CACHE_H_
