#ifndef ASSESS_CACHE_CUBE_CACHE_H_
#define ASSESS_CACHE_CUBE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
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
/// Mutable fact tables are handled by epoch keying: the engine stamps every
/// entry with the fact epoch it was computed at (part of the fingerprint,
/// checked again by subsumption), so entries from superseded epochs can
/// never answer a query — they merely occupy budget until the LRU or an
/// InvalidateEpochsBefore sweep reclaims them.
class CubeResultCache {
 public:
  explicit CubeResultCache(CacheOptions options = {});

  /// \brief Exact lookup by fingerprint key. Counts a lookup; on hit the
  /// entry is bumped to most-recently-used and its cube copied out.
  std::optional<Cube> FindExact(const std::string& key);

  /// \brief Whether an entry exists under `key`, without copying it, bumping
  /// its LRU position or counting a lookup. The MQO collector uses this to
  /// drop already-answered subplans from a shared-scan group cheaply.
  bool Contains(const std::string& key) const;

  /// \brief Subsumption lookup: among entries on `want.cube_name`, returns
  /// a copy of the smallest (fewest rows) entry that answers `want` per
  /// EntryAnswersQuery, or nullopt. Only the returned entry is bumped to
  /// most-recently-used. Call after FindExact missed; counts the
  /// subsumption hit or the overall miss.
  std::optional<CubeEntry> FindSubsuming(const CubeSchema& schema,
                                         const CanonicalQuery& want);

  /// \brief Stores `cube` as the result of `query` under `key`, replacing
  /// any previous entry, then evicts least-recently-used entries until the
  /// shard is back under budget. Entries bigger than a whole shard's budget
  /// are not stored (they would only thrash the LRU list).
  void Insert(const std::string& key, CanonicalQuery query, const Cube& cube);

  /// \brief Drops every entry.
  void Clear();

  /// \brief Sweeps entries of `cube_name` whose epoch predates `epoch` —
  /// the ingest commit's eager reclamation of results its append just made
  /// stale. Pure memory hygiene: epoch keying already makes such entries
  /// unreachable. Returns the number of entries dropped (also counted in
  /// stats().epoch_invalidations).
  size_t InvalidateEpochsBefore(std::string_view cube_name, uint64_t epoch);

  CacheStats stats() const;

  size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Entry {
    std::string key;
    CubeEntry entry;
    size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);

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
};

/// \brief True when `query` can be answered by re-aggregating any
/// selection-free result pre-aggregated at `source_group_by`: every level
/// the query needs (group-by or predicate) is available at a finer-or-equal
/// level in the source, and all query measures re-aggregate losslessly
/// (sum/min/max/count; avg is not distributive and disqualifies the
/// source). The group-by half of EntryAnswersQuery.
bool RollupAnswersQuery(const CubeSchema& schema, const CubeQuery& query,
                        const GroupBySet& source_group_by);

/// \brief True when `entry` (a cached result or a materialized view) can
/// answer `want` by client-side re-aggregation: same cube; the entry's
/// predicates are a subset of the request's (so the request's conjunction
/// implies the entry's and the entry's rows are a superset of the rows
/// needed); the request's group-by and every *extra* request predicate are
/// reachable by rolling the entry's group-by up (RollupAnswersQuery, which
/// also enforces that avg measures disqualify); and the requested measures
/// are a subset of the entry's. Entries from a different fact epoch never
/// answer: their cube had different contents.
bool EntryAnswersQuery(const CubeSchema& schema, const CanonicalQuery& want,
                       const CanonicalQuery& entry);

/// \brief The smallest (fewest rows; the first on ties) entry of `entries`
/// that answers `want` per EntryAnswersQuery, or nullptr when none does.
const CubeEntry* SmallestAnsweringEntry(const CubeSchema& schema,
                                        const CanonicalQuery& want,
                                        const std::vector<CubeEntry>& entries);

/// \brief Estimated resident size of a cached cube (coordinate columns,
/// measure columns, names and fixed bookkeeping).
size_t EstimateCubeBytes(const Cube& cube);

}  // namespace assess

#endif  // ASSESS_CACHE_CUBE_CACHE_H_
