#ifndef ASSESS_CACHE_CUBE_CACHE_H_
#define ASSESS_CACHE_CUBE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/query_fingerprint.h"
#include "olap/cube.h"
#include "olap/cube_query.h"
#include "olap/cube_schema.h"
#include "olap/group_by_set.h"

namespace assess {

/// \brief An aggregate at one group-by node together with the canonical
/// query it answers: the one entry type of "answer a get from a finer
/// aggregate". Result-cache entries are CubeEntries, and so are
/// materialized views — a view's query has the view's group-by, no
/// predicates, every schema measure and the fact epoch its contents
/// aggregate. Measure columns are named with schema measure names.
struct CubeEntry {
  CanonicalQuery query;
  Cube cube;
};

/// \brief Sizing knobs of the result cache.
struct CacheOptions {
  /// Total byte budget across all shards; LRU entries are evicted past it.
  size_t budget_bytes = size_t{64} << 20;
  /// Number of independently locked shards (clamped to >= 1). Keys are
  /// distributed by fingerprint hash, so concurrent sessions rarely contend.
  int shards = 8;
};

/// \brief How one get was answered: StarQueryEngine::last_cache_outcome()
/// and the workload profile's per-fingerprint outcome counts.
enum class CacheOutcome {
  kBypass,          ///< cache disabled for the engine
  kMiss,            ///< computed by scan (fact table or view)
  kExactHit,        ///< served from an identical cached result
  kSubsumptionHit,  ///< re-aggregated from a finer cached result
};

/// \brief Monotonic counters and residency gauges of the cache, readable at
/// any time (each counter is an independent atomic, so a snapshot taken
/// under concurrent traffic is per-field accurate but not globally atomic).
struct CacheStats {
  uint64_t lookups = 0;            ///< Execute() calls that consulted the cache
  uint64_t exact_hits = 0;         ///< answered by fingerprint identity
  uint64_t subsumption_hits = 0;   ///< answered by re-aggregating a finer entry
  uint64_t misses = 0;             ///< fell through to the engine scan
  uint64_t insertions = 0;         ///< entries stored (replacements included)
  uint64_t evictions = 0;          ///< entries dropped by the byte budget
  uint64_t epoch_invalidations = 0;  ///< entries swept by InvalidateEpochsBefore
  /// Entries on which FindSubsuming ran the answerability test: the
  /// candidates its lattice index reached. Deterministic work per miss.
  uint64_t subsumption_probes = 0;
  size_t bytes_resident = 0;       ///< estimated bytes currently held
  size_t entries = 0;              ///< entries currently held

  uint64_t hits() const { return exact_hits + subsumption_hits; }
};

/// \brief A sharded, thread-safe, byte-budgeted LRU cache of cube-query
/// results: the dynamic counterpart of the materialized views a BoundCube
/// holds, with entries of the same CubeEntry type. Entries are keyed by
/// canonical query fingerprint; lookups either match exactly or find a
/// finer-grained entry whose result subsumes the request (EntryAnswersQuery,
/// the same rule that picks a view) for client-side re-aggregation.
///
/// The subsumption lookup is indexed by the group-by lattice: each shard
/// files its entries under (cube, epoch, group-by node, predicate set), so a
/// lookup reaches only entries of the request's cube and epoch, at nodes
/// that roll up to the requested group-by, whose predicate set is a subset
/// of the request's.
///
/// Mutable fact tables are handled by epoch keying: the engine stamps every
/// entry with the fact epoch it was computed at (part of the fingerprint,
/// checked again by subsumption), so entries from superseded epochs can
/// never answer a query — they merely occupy budget until the LRU or an
/// InvalidateEpochsBefore sweep reclaims them.
class CubeResultCache {
 public:
  explicit CubeResultCache(CacheOptions options = {});

  /// \brief Exact lookup by fingerprint key. Counts a lookup; on hit the
  /// entry is bumped to most-recently-used and returned as the resident,
  /// immutable entry (shared, not copied), else null.
  std::shared_ptr<const CubeEntry> FindExact(const std::string& key);

  /// \brief Whether an entry exists under `key`, without copying it, bumping
  /// its LRU position or counting a lookup. The MQO collector uses this to
  /// drop already-answered subplans from a shared-scan group cheaply.
  bool Contains(const std::string& key) const;

  /// \brief Subsumption lookup: among entries on `want.cube_name`, returns
  /// the smallest entry that answers `want` per EntryAnswersQuery, as the
  /// resident, immutable entry (shared, not copied), or null. Smallest is
  /// fewest rows, then the smallest fingerprint key, so the winner depends
  /// only on what is resident, not on shard placement or LRU order. Only
  /// the returned entry is bumped to most-recently-used. Call after
  /// FindExact missed; counts the subsumption hit or the overall miss, and
  /// the candidates tested (subsumption_probes).
  std::shared_ptr<const CubeEntry> FindSubsuming(const CubeSchema& schema,
                                                 const CanonicalQuery& want);

  /// \brief Stores `cube` as the result of `query` under `key`, replacing
  /// any previous entry, then evicts least-recently-used entries until the
  /// shard is back under budget. Entries bigger than a whole shard's budget
  /// are not stored (they would only thrash the LRU list). `query` must come
  /// from CanonicalizeQuery (the index reads its predicate keys).
  void Insert(const std::string& key, CanonicalQuery query, const Cube& cube);

  /// \brief Drops every entry.
  void Clear();

  /// \brief Sweeps entries of `cube_name` whose epoch predates `epoch` —
  /// the ingest commit's eager reclamation of results its append just made
  /// stale. Pure memory hygiene: epoch keying already makes such entries
  /// unreachable. Drops whole (cube, epoch) index buckets without visiting
  /// any other entry. Returns the number of entries dropped (also counted in
  /// stats().epoch_invalidations).
  size_t InvalidateEpochsBefore(std::string_view cube_name, uint64_t epoch);

  CacheStats stats() const;

  size_t budget_bytes() const { return budget_bytes_; }

  /// \brief Entries reachable through the subsumption index. Equals
  /// stats().entries whenever no call is in flight; tests check that the
  /// index and the LRU list stay in step.
  size_t IndexedEntries() const;

 private:
  struct Entry {
    std::string key;
    // Shared so a lookup can hold its best candidate across shard locks and
    // copy only the winner, once, outside every lock.
    std::shared_ptr<const CubeEntry> entry;
    size_t bytes = 0;
    uint64_t predicate_set_hash = 0;  // PredicateSetHash of the query's keys
  };
  using LruList = std::list<Entry>;

  // The entries of one (cube, epoch) at one group-by node, by the hash of
  // their predicate set.
  struct NodeBucket {
    GroupBySet group_by;
    std::unordered_multimap<uint64_t, LruList::iterator> by_predicates;
  };
  // Per cube: epoch -> resident group-by nodes. Ordered by epoch, so stale
  // epochs are one prefix.
  using EpochBuckets = std::map<uint64_t, std::vector<NodeBucket>>;

  struct Shard {
    mutable std::mutex mutex;
    LruList lru;  // front = most recently used
    std::unordered_map<std::string, LruList::iterator> index;
    std::map<std::string, EpochBuckets, std::less<>> lattice;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);
  // Both run under the shard's lock.
  static void AddToLattice(Shard& shard, LruList::iterator it);
  static void Erase(Shard& shard, LruList::iterator it);

  size_t budget_bytes_;
  size_t shard_budget_;
  std::vector<Shard> shards_;

  mutable std::atomic<uint64_t> lookups_{0};
  mutable std::atomic<uint64_t> exact_hits_{0};
  mutable std::atomic<uint64_t> subsumption_hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> insertions_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> epoch_invalidations_{0};
  mutable std::atomic<uint64_t> subsumption_probes_{0};
};

/// \brief True when `entry` (a cached result or a materialized view) can
/// answer `want` by client-side re-aggregation: same cube; the entry's
/// predicates are a subset of the request's (so the request's conjunction
/// implies the entry's and the entry's rows are a superset of the rows
/// needed); the request's group-by and every *extra* request predicate are
/// reachable by rolling the entry's group-by up (every level they touch is
/// present in the entry at a finer-or-equal level, and no requested measure
/// is an avg, which does not re-aggregate); and the requested measures
/// are a subset of the entry's. Entries from a different fact epoch never
/// answer: their cube had different contents. Both queries must come from
/// CanonicalizeQuery; the test compares their sorted predicate keys and
/// allocates nothing.
bool EntryAnswersQuery(const CubeSchema& schema, const CanonicalQuery& want,
                       const CanonicalQuery& entry);

/// \brief The smallest (fewest rows; the first on ties) entry of `entries`
/// that answers `want` per EntryAnswersQuery, or nullptr when none does. A
/// linear walk: it serves a cube's handful of materialized views.
const CubeEntry* SmallestAnsweringEntry(const CubeSchema& schema,
                                        const CanonicalQuery& want,
                                        const std::vector<CubeEntry>& entries);

/// \brief Estimated resident size of a cached cube (coordinate columns,
/// measure columns, names and fixed bookkeeping).
size_t EstimateCubeBytes(const Cube& cube);

}  // namespace assess

#endif  // ASSESS_CACHE_CUBE_CACHE_H_
