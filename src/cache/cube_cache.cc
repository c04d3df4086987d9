#include "cache/cube_cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <iterator>

#include "common/failpoint.h"
#include "obs/trace.h"
#include "olap/aggregate.h"

namespace assess {

namespace {

// Requests with at most this many predicates probe each visited node once
// per subset of their predicate set (at most 64 hash lookups); requests with
// more walk the visited node's entries instead.
constexpr size_t kMaxProbedPredicates = 6;

uint64_t PredicateHash(const std::string& key) {
  // splitmix64's finalizer, so a sum of hashes stays well mixed.
  uint64_t z = std::hash<std::string>{}(key) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Order-independent hash of a predicate set: the sum of its keys' hashes,
// so every subset's hash is one addition away from a smaller subset's.
uint64_t PredicateSetHash(const std::vector<std::string>& keys) {
  uint64_t sum = 0;
  for (const std::string& key : keys) sum += PredicateHash(key);
  return sum;
}

// What the lattice index and the canonical predicate keys add to an entry:
// its hash-map node and bucket slot, and the keys themselves.
size_t IndexBytes(const CanonicalQuery& query) {
  size_t bytes = 4 * sizeof(void*) + sizeof(uint64_t);
  for (const std::string& key : query.predicate_keys) {
    bytes += sizeof(std::string) + key.size();
  }
  return bytes;
}

// The bucket of `group_by` among one epoch's nodes, or nodes.end().
template <typename NodeBuckets>
auto FindNode(NodeBuckets& nodes, const GroupBySet& group_by) {
  return std::find_if(nodes.begin(), nodes.end(), [&](const auto& node) {
    return node.group_by == group_by;
  });
}

}  // namespace

CubeResultCache::CubeResultCache(CacheOptions options)
    : budget_bytes_(options.budget_bytes),
      shards_(std::max(options.shards, 1)) {
  shard_budget_ = budget_bytes_ / shards_.size();
}

CubeResultCache::Shard& CubeResultCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void CubeResultCache::AddToLattice(Shard& shard, LruList::iterator it) {
  const CanonicalQuery& query = it->entry->query;
  auto cube_it = shard.lattice.find(query.cube_name);
  if (cube_it == shard.lattice.end()) {
    cube_it = shard.lattice.emplace(query.cube_name, EpochBuckets()).first;
  }
  std::vector<NodeBucket>& nodes = cube_it->second[query.epoch];
  auto node = FindNode(nodes, query.group_by);
  if (node == nodes.end()) {
    nodes.push_back(NodeBucket{query.group_by, {}});
    node = std::prev(nodes.end());
  }
  node->by_predicates.emplace(it->predicate_set_hash, it);
}

void CubeResultCache::Erase(Shard& shard, LruList::iterator it) {
  const CanonicalQuery& query = it->entry->query;
  auto cube_it = shard.lattice.find(query.cube_name);
  auto epoch_it = cube_it->second.find(query.epoch);
  std::vector<NodeBucket>& nodes = epoch_it->second;
  auto node = FindNode(nodes, query.group_by);
  auto [lo, hi] = node->by_predicates.equal_range(it->predicate_set_hash);
  while (lo->second != it) ++lo;
  node->by_predicates.erase(lo);
  if (node->by_predicates.empty()) nodes.erase(node);
  if (nodes.empty()) cube_it->second.erase(epoch_it);
  if (cube_it->second.empty()) shard.lattice.erase(cube_it);
  shard.bytes -= it->bytes;
  shard.index.erase(it->key);
  shard.lru.erase(it);
}

std::shared_ptr<const CubeEntry> CubeResultCache::FindExact(
    const std::string& key) {
  Span span("cache.lookup");
  lookups_.fetch_add(1, std::memory_order_relaxed);
  // A triggered lookup failpoint degrades to a miss: results must be
  // byte-identical with or without the cache's help.
  if (ASSESS_FAILPOINT_TRIGGERED("cache.lookup")) {
    span.AddInt("hit", 0);
    return nullptr;
  }
  std::shared_ptr<const CubeEntry> hit;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hit = it->second->entry;
    }
  }
  span.AddInt("hit", hit ? 1 : 0);
  if (hit) exact_hits_.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

bool CubeResultCache::Contains(const std::string& key) const {
  const Shard& shard = shards_[std::hash<std::string>{}(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.index.count(key) > 0;
}

std::shared_ptr<const CubeEntry> CubeResultCache::FindSubsuming(
    const CubeSchema& schema, const CanonicalQuery& want) {
  Span span("cache.subsume");
  if (ASSESS_FAILPOINT_TRIGGERED("cache.lookup")) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // An answering entry's predicates are a subset of the request's. With few
  // enough request predicates, hash every subset once; each visited node is
  // then probed for exactly those predicate sets.
  const size_t k = want.predicate_keys.size();
  const bool probe = k <= kMaxProbedPredicates;
  std::array<uint64_t, size_t{1} << kMaxProbedPredicates> subsets;
  const size_t subset_count = probe ? size_t{1} << k : 0;
  if (probe) {
    std::array<uint64_t, kMaxProbedPredicates> hashes;
    for (size_t i = 0; i < k; ++i) {
      hashes[i] = PredicateHash(want.predicate_keys[i]);
    }
    subsets[0] = 0;
    for (size_t mask = 1; mask < subset_count; ++mask) {
      subsets[mask] = subsets[mask & (mask - 1)] +
                      hashes[std::countr_zero(mask)];
    }
  }

  std::shared_ptr<const CubeEntry> best;
  std::string best_key;
  uint64_t probes = 0;
  auto consider = [&](const Entry& e) {
    ++probes;
    if (!EntryAnswersQuery(schema, want, e.entry->query)) return;
    if (best) {
      const int64_t rows = e.entry->cube.NumRows();
      const int64_t best_rows = best->cube.NumRows();
      if (rows > best_rows || (rows == best_rows && e.key >= best_key)) return;
    }
    best = e.entry;
    best_key = e.key;
  };
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto cube_it = shard.lattice.find(want.cube_name);
    if (cube_it == shard.lattice.end()) continue;
    auto epoch_it = cube_it->second.find(want.epoch);
    if (epoch_it == cube_it->second.end()) continue;
    for (const NodeBucket& node : epoch_it->second) {
      if (!node.group_by.RollsUpTo(want.group_by, schema)) continue;
      if (!probe) {
        for (const auto& [hash, it] : node.by_predicates) consider(*it);
        continue;
      }
      for (size_t s = 0; s < subset_count; ++s) {
        auto [lo, hi] = node.by_predicates.equal_range(subsets[s]);
        for (; lo != hi; ++lo) consider(*lo->second);
      }
    }
  }
  subsumption_probes_.fetch_add(probes, std::memory_order_relaxed);
  span.AddInt("hit", best ? 1 : 0);
  if (!best) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  {
    // Bump the winner only: candidates it beat must stay evictable.
    Shard& shard = ShardFor(best_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(best_key);
    if (it != shard.index.end() && it->second->entry == best) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    }
  }
  subsumption_hits_.fetch_add(1, std::memory_order_relaxed);
  return best;
}

void CubeResultCache::Insert(const std::string& key, CanonicalQuery query,
                             const Cube& cube) {
  if (ASSESS_FAILPOINT_TRIGGERED("cache.insert")) return;  // dropped insert
  Span span("cache.insert");
  size_t bytes = EstimateCubeBytes(cube) + key.size() + sizeof(Entry) +
                 sizeof(CubeEntry) + IndexBytes(query);
  span.AddInt("bytes", static_cast<int64_t>(bytes));
  if (bytes > shard_budget_) return;
  const uint64_t predicate_set_hash = PredicateSetHash(query.predicate_keys);
  auto entry =
      std::make_shared<const CubeEntry>(CubeEntry{std::move(query), cube});
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) Erase(shard, it->second);
  shard.lru.push_front(Entry{key, std::move(entry), bytes, predicate_set_hash});
  shard.index[key] = shard.lru.begin();
  AddToLattice(shard, shard.lru.begin());
  shard.bytes += bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    Erase(shard, std::prev(shard.lru.end()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CubeResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.lattice.clear();
    shard.bytes = 0;
  }
}

size_t CubeResultCache::InvalidateEpochsBefore(std::string_view cube_name,
                                               uint64_t epoch) {
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto cube_it = shard.lattice.find(cube_name);
    if (cube_it == shard.lattice.end()) continue;
    EpochBuckets& epochs = cube_it->second;
    const auto stale_end = epochs.lower_bound(epoch);
    for (auto bucket = epochs.begin(); bucket != stale_end; ++bucket) {
      for (const NodeBucket& node : bucket->second) {
        for (const auto& [hash, it] : node.by_predicates) {
          shard.bytes -= it->bytes;
          shard.index.erase(it->key);
          shard.lru.erase(it);
          ++dropped;
        }
      }
    }
    epochs.erase(epochs.begin(), stale_end);
    if (epochs.empty()) shard.lattice.erase(cube_it);
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
  stats.subsumption_probes =
      subsumption_probes_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.bytes_resident += shard.bytes;
    stats.entries += shard.lru.size();
  }
  return stats;
}

size_t CubeResultCache::IndexedEntries() const {
  size_t entries = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [cube, epochs] : shard.lattice) {
      for (const auto& [epoch, nodes] : epochs) {
        for (const NodeBucket& node : nodes) {
          entries += node.by_predicates.size();
        }
      }
    }
  }
  return entries;
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
  if (!std::includes(want.predicate_keys.begin(), want.predicate_keys.end(),
                     entry.predicate_keys.begin(),
                     entry.predicate_keys.end())) {
    return false;
  }
  // The residual request — its group-by plus the extra predicates the entry
  // has not already applied — must be answerable by rolling the entry up:
  // every measure has an agg::RollupOp (avg has none), and every level the
  // residual touches is available at a finer-or-equal level in the entry.
  for (int m : want.measures) {
    if (!agg::RollupOp(schema.measure(m).op)) return false;
  }
  const GroupBySet& source = entry.group_by;
  if (!source.RollsUpTo(want.group_by, schema)) return false;
  for (size_t i = 0; i < want.predicates.size(); ++i) {
    if (std::binary_search(entry.predicate_keys.begin(),
                           entry.predicate_keys.end(),
                           want.predicate_keys[i])) {
      continue;  // applied by the entry already
    }
    const Predicate& p = want.predicates[i];
    if (p.hierarchy < 0 || p.hierarchy >= source.hierarchy_count()) {
      return false;
    }
    if (!source.HasHierarchy(p.hierarchy)) return false;
    if (source.LevelOf(p.hierarchy) > p.level) return false;
  }
  return true;
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
