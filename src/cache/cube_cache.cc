#include "cache/cube_cache.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace assess {

CubeResultCache::CubeResultCache(CacheOptions options)
    : budget_bytes_(options.budget_bytes),
      shards_(std::max(options.shards, 1)) {
  shard_budget_ = budget_bytes_ / shards_.size();
}

CubeResultCache::Shard& CubeResultCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<Cube> CubeResultCache::FindExact(const std::string& key) {
  Span span("cache.lookup");
  lookups_.fetch_add(1, std::memory_order_relaxed);
  // A triggered lookup failpoint degrades to a miss: results must be
  // byte-identical with or without the cache's help.
  if (ASSESS_FAILPOINT_TRIGGERED("cache.lookup")) {
    span.AddInt("hit", 0);
    return std::nullopt;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    span.AddInt("hit", 0);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  exact_hits_.fetch_add(1, std::memory_order_relaxed);
  span.AddInt("hit", 1);
  return it->second->entry.cube;
}

bool CubeResultCache::Contains(const std::string& key) const {
  const Shard& shard = shards_[std::hash<std::string>{}(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.index.count(key) > 0;
}

std::optional<CubeEntry> CubeResultCache::FindSubsuming(
    const CubeSchema& schema, const CanonicalQuery& want) {
  Span span("cache.subsume");
  std::optional<CubeEntry> best;
  std::string best_key;
  if (ASSESS_FAILPOINT_TRIGGERED("cache.lookup")) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return best;
  }
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& e : shard.lru) {
      if (best && e.entry.cube.NumRows() >= best->cube.NumRows()) continue;
      if (!EntryAnswersQuery(schema, want, e.entry.query)) continue;
      best = e.entry;
      best_key = e.key;
    }
  }
  if (best) {
    // Bump the winner only: candidates it beat must stay evictable.
    Shard& shard = ShardFor(best_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(best_key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    }
    subsumption_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  span.AddInt("hit", best ? 1 : 0);
  return best;
}

void CubeResultCache::Insert(const std::string& key, CanonicalQuery query,
                             const Cube& cube) {
  if (ASSESS_FAILPOINT_TRIGGERED("cache.insert")) return;  // dropped insert
  Span span("cache.insert");
  size_t bytes = EstimateCubeBytes(cube) + key.size() + sizeof(Entry);
  span.AddInt("bytes", static_cast<int64_t>(bytes));
  if (bytes > shard_budget_) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{key, CubeEntry{std::move(query), cube}, bytes});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CubeResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

size_t CubeResultCache::InvalidateEpochsBefore(std::string_view cube_name,
                                               uint64_t epoch) {
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      const CanonicalQuery& query = it->entry.query;
      if (query.cube_name == cube_name && query.epoch < epoch) {
        shard.bytes -= it->bytes;
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    epoch_invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  }
  return dropped;
}

CacheStats CubeResultCache::stats() const {
  CacheStats stats;
  stats.lookups = lookups_.load(std::memory_order_relaxed);
  stats.exact_hits = exact_hits_.load(std::memory_order_relaxed);
  stats.subsumption_hits = subsumption_hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.epoch_invalidations =
      epoch_invalidations_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.bytes_resident += shard.bytes;
    stats.entries += shard.lru.size();
  }
  return stats;
}

bool RollupAnswersQuery(const CubeSchema& schema, const CubeQuery& query,
                        const GroupBySet& source_group_by) {
  // Measures must re-aggregate losslessly.
  for (int m : query.measures) {
    if (schema.measure(m).op == AggOp::kAvg) return false;
  }
  // Per hierarchy: the finest level the query touches must be rolled up to
  // from the source's level for that hierarchy.
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    int finest_needed = -1;  // -1: hierarchy untouched.
    if (query.group_by.HasHierarchy(h)) {
      finest_needed = query.group_by.LevelOf(h);
    }
    for (const Predicate& p : query.predicates) {
      if (p.hierarchy != h) continue;
      finest_needed =
          finest_needed < 0 ? p.level : std::min(finest_needed, p.level);
    }
    if (finest_needed < 0) continue;
    if (!source_group_by.HasHierarchy(h)) return false;
    if (source_group_by.LevelOf(h) > finest_needed) return false;
  }
  return true;
}

bool EntryAnswersQuery(const CubeSchema& schema, const CanonicalQuery& want,
                       const CanonicalQuery& entry) {
  if (want.cube_name != entry.cube_name) return false;
  if (want.epoch != entry.epoch) return false;
  // Requested measures must all be present in the entry's result.
  if (!std::includes(entry.measures.begin(), entry.measures.end(),
                     want.measures.begin(), want.measures.end())) {
    return false;
  }
  // The entry's predicate conjunction must be implied by the request's:
  // every entry predicate appears canonically in the request, so the
  // entry's rows are a superset of the rows the request needs.
  std::unordered_set<std::string> want_keys;
  for (const Predicate& p : want.predicates) want_keys.insert(PredicateKey(p));
  std::unordered_set<std::string> entry_keys;
  for (const Predicate& p : entry.predicates) {
    const std::string key = PredicateKey(p);
    if (!want_keys.count(key)) return false;
    entry_keys.insert(key);
  }
  // The residual request (its group-by plus the extra predicates the entry
  // has not already applied) must be answerable by rolling the entry up.
  CubeQuery residual;
  residual.cube_name = want.cube_name;
  residual.group_by = want.group_by;
  residual.measures = want.measures;
  for (const Predicate& p : want.predicates) {
    if (!entry_keys.count(PredicateKey(p))) residual.predicates.push_back(p);
  }
  return RollupAnswersQuery(schema, residual, entry.group_by);
}

const CubeEntry* SmallestAnsweringEntry(const CubeSchema& schema,
                                        const CanonicalQuery& want,
                                        const std::vector<CubeEntry>& entries) {
  const CubeEntry* best = nullptr;
  for (const CubeEntry& e : entries) {
    if (best != nullptr && e.cube.NumRows() >= best->cube.NumRows()) continue;
    if (EntryAnswersQuery(schema, want, e.query)) best = &e;
  }
  return best;
}

size_t EstimateCubeBytes(const Cube& cube) {
  size_t bytes = 0;
  const size_t rows = static_cast<size_t>(cube.NumRows());
  bytes += static_cast<size_t>(cube.level_count()) * rows * sizeof(MemberId);
  bytes += static_cast<size_t>(cube.measure_count()) * rows * sizeof(double);
  for (int m = 0; m < cube.measure_count(); ++m) {
    bytes += cube.measure_name(m).size() + sizeof(std::string);
  }
  bytes += static_cast<size_t>(cube.level_count()) * sizeof(LevelRef);
  return bytes;
}

}  // namespace assess
