#ifndef ASSESS_STORAGE_STAR_QUERY_ENGINE_H_
#define ASSESS_STORAGE_STAR_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cube_cache.h"
#include "common/result.h"
#include "olap/cube.h"
#include "olap/cube_query.h"
#include "storage/star_schema.h"

namespace assess {

class Span;
class TaskPool;
class WorkloadProfiler;
struct ScanConsumer;

/// \brief Pivot push-down specification (the ⊞ operator executed
/// "server-side", Section 5.2.3). The query it applies to must slice the
/// pivot level on {reference_member} ∪ other_members.
struct PivotSpec {
  /// The sliced level l (its name).
  std::string level;
  /// u_k: the slice kept in the output, with its coordinate intact.
  std::string reference_member;
  /// u_1..u_{k-1}: slices folded into extra measures, in the given order.
  std::vector<std::string> other_members;
  /// New measure names: measure_names[i][j] names measure j of slice
  /// other_members[i] in the output (e.g. "benchmark.quantity", "past1").
  std::vector<std::vector<std::string>> measure_names;
  /// When true (assess), rows missing any neighbor slice are dropped —
  /// mirroring the NOT NULL filter of Listing 5. When false (assess*),
  /// missing neighbors yield null measures.
  bool require_complete = true;
};

/// \brief Full engine configuration. This is the option set interactive
/// front-ends (Executor/AssessSession) construct engines with; the result
/// cache is ON by default here because assess sessions re-touch the same
/// benchmark cubes constantly.
struct EngineOptions {
  bool use_views = true;
  /// Intra-query parallelism cap: how many pool participants one scan may
  /// occupy at once. <= 0 derives it from the shared pool's worker count —
  /// NOT from hardware_concurrency, so many sessions inside one assessd
  /// still size themselves against the one pool they all share instead of
  /// each assuming it owns the whole machine. 1 runs scans inline on the
  /// calling thread (bit-identical results either way; see TaskPool).
  int threads = 0;
  /// The worker pool scans are scheduled on. When unset, the process-wide
  /// TaskPool::Shared() is used — every engine in the process then draws
  /// from one fixed worker set no matter how many sessions exist.
  std::shared_ptr<TaskPool> pool;
  /// Semantic result cache: exact fingerprint hits plus subsumption-aware
  /// reuse of finer-grained cached results.
  bool use_result_cache = true;
  CacheOptions cache;
  /// When set, this cache instance is used instead of creating a private
  /// one — the way several sessions over one database share warm results.
  std::shared_ptr<CubeResultCache> shared_cache;
  /// When set, every internal get records its fingerprint, latency and
  /// cache outcome into this workload profile (obs/workload_profiler.h).
  /// Not owned; must outlive the engine. Null keeps the engine
  /// profile-free.
  WorkloadProfiler* profiler = nullptr;
};

/// \brief Scan accounting for one engine: how many scan morsels were
/// aggregated vs. skipped outright because the fact table's row-range index
/// showed no row of them can pass the pushed-down predicate, and how many
/// rows the scans visited and how many of those passed.
struct ScanStats {
  uint64_t morsels_scanned = 0;
  uint64_t morsels_skipped = 0;
  uint64_t rows_visited = 0;
  uint64_t rows_passed = 0;
};

/// \brief The query engine over star-schema storage: the stand-in for the
/// DBMS of the paper's architecture.
///
/// Exactly three entry points exist, matching the three push-down shapes of
/// Section 5.2: Execute (a single `get`, used by every plan), ExecuteJoined
/// (get + get + join, the JOP push-down) and ExecutePivoted (get + pivot,
/// the POP push-down). Everything else happens client-side on Cube values.
///
/// All entry points funnel through one internal get, so the result cache
/// accelerates NP, JOP and POP alike.
class StarQueryEngine {
 public:
  /// \brief Configured construction (the front door for sessions).
  StarQueryEngine(const StarDatabase* db, const EngineOptions& options);

  /// \brief Legacy construction: serial by default and — deliberately —
  /// without a result cache, so direct uses (microbenches, equivalence
  /// tests) keep measuring and exercising raw scans.
  /// `threads` > 1 lets large scans occupy that many participants of the
  /// process-wide TaskPool (morsel-driven; partials merged in morsel order,
  /// so results are bit-identical to the serial path at every thread
  /// count).
  explicit StarQueryEngine(const StarDatabase* db, bool use_views = true,
                           int threads = 1);

  /// \brief Executes a cube query (the `get` logical operator): aggregates
  /// the detailed cube at the query's group-by set under its predicates.
  /// Answers from the result cache when possible, else from the smallest
  /// applicable materialized view when enabled, else from the fact table.
  Result<Cube> Execute(const CubeQuery& query) const;

  /// \brief JOP push-down: evaluates target and benchmark queries and joins
  /// them on `join_levels` (level names common to both group-by sets),
  /// without materializing the two operand cubes for the client. Benchmark
  /// measures are renamed "<benchmark.alias>.<name>" when an alias is set.
  /// `left_outer` selects the assess* variant.
  Result<Cube> ExecuteJoined(const CubeQuery& target,
                             const CubeQuery& benchmark,
                             const std::vector<std::string>& join_levels,
                             bool left_outer) const;

  /// \brief JOP push-down for multi-match partial joins (the Past case of
  /// Example 5.3): all `expected` benchmark cells matching a target cell are
  /// concatenated into one widened row, ordered chronologically by
  /// `order_level` and renamed `slot_names[slot][measure]`.
  Result<Cube> ExecuteConcatJoined(
      const CubeQuery& target, const CubeQuery& benchmark,
      const std::vector<std::string>& join_levels,
      const std::string& order_level, int expected,
      const std::vector<std::vector<std::string>>& slot_names,
      bool require_complete) const;

  /// \brief POP push-down: evaluates `query_all` (whose predicate on
  /// spec.level selects reference + other members) and pivots the other
  /// slices into measures, in a single engine call (Listing 5's shape).
  Result<Cube> ExecutePivoted(const CubeQuery& query_all,
                              const PivotSpec& spec) const;

  /// \brief Multi-query shared scan (the server's MQO layer): executes every
  /// query in `queries` — all on one cube, all with the same canonical
  /// predicate conjunction, group-bys free to differ — in a single fused
  /// morsel pass over the fact table. A predicated batch tests the shared
  /// conjunction once per morsel and every consumer aggregates only the
  /// passing rows; an unpredicated one runs each consumer's solo kernel over
  /// the morsel. Either way rows are added in row order and per-consumer
  /// partials merge in morsel index order, so each result is bit-identical
  /// to running that query alone through Execute() against the same
  /// snapshot. Results are inserted into the result cache (when enabled)
  /// and returned in input order.
  ///
  /// `pinned_epoch` is the fact epoch the batch planned against; when
  /// nonzero and the table has advanced past it, Unavailable is returned
  /// (the caller falls back to unbatched execution). Views are deliberately
  /// bypassed: all consumers must read the same source rows.
  Result<std::vector<Cube>> ExecuteSharedScan(
      const std::vector<CubeQuery>& queries, uint64_t pinned_epoch) const;

  /// \brief Materializes an aggregate view of `cube_name` at `level_names`
  /// (no predicates, all measures) by a fact scan and attaches it to the
  /// cube as a CubeEntry stamped with the epoch it aggregates. Returns the
  /// number of rows in the view. Views are identified by their group-by;
  /// `view_name` is accepted for callers that label them and not stored.
  Result<int64_t> MaterializeView(StarDatabase* db, const std::string& cube_name,
                                  const std::vector<std::string>& level_names,
                                  const std::string& view_name) const;

  /// \brief Aggregates committed fact rows [from, to) of `bound` at
  /// `group_by` — no predicates, all schema measures — as a scan of that
  /// row range (morsels anchored at `from`). This is the delta-aggregation
  /// primitive incremental materialized-view maintenance feeds appended
  /// batches through. Group-by sets beyond 16 levels are NotSupported.
  Result<Cube> AggregateFactRange(const BoundCube& bound,
                                  const GroupBySet& group_by, int64_t from,
                                  int64_t to) const;

  /// \brief Whether the last Execute() was rolled up from a materialized
  /// view (observable for tests and the ablation bench). Views are searched
  /// only after the cache missed, so this is false for every cache hit.
  bool last_used_view() const { return last_used_view_; }

  /// \brief How the last internal get was answered.
  CacheOutcome last_cache_outcome() const { return last_cache_outcome_; }

  /// \brief The result cache, or nullptr when disabled. Shareable across
  /// engines/sessions over the same (immutable) database.
  const std::shared_ptr<CubeResultCache>& result_cache() const {
    return cache_;
  }

  /// \brief Cache counters (all zero when the cache is disabled).
  CacheStats cache_stats() const {
    return cache_ ? cache_->stats() : CacheStats{};
  }

  int threads() const { return threads_; }

  /// \brief The pool this engine schedules scans on (never null).
  const std::shared_ptr<TaskPool>& pool() const { return pool_; }

  /// \brief Scan counters for every scan this engine has run. The same
  /// counts also accumulate into the pool, where assessd reads them
  /// fleet-wide for the stats frame.
  ScanStats scan_stats() const {
    return ScanStats{morsels_scanned_.load(std::memory_order_relaxed),
                     morsels_skipped_.load(std::memory_order_relaxed),
                     rows_visited_.load(std::memory_order_relaxed),
                     rows_passed_.load(std::memory_order_relaxed)};
  }

 private:
  Result<Cube> ExecuteInternal(const BoundCube& bound,
                               const CubeQuery& query) const;
  /// ExecuteInternal minus the "engine.get" span: the one get path. Answers
  /// from, in order, an exact cache hit, the smallest answering cache entry,
  /// the smallest answering view (when use_views), else a fact scan; the
  /// two finer-aggregate sources share one roll-up. When `canon_out` is
  /// set and the get canonicalized `query`, the canonical form is left
  /// there for the workload profiler.
  Result<Cube> ExecuteGet(const BoundCube& bound, const CubeQuery& query,
                          std::optional<CanonicalQuery>* canon_out) const;
  /// The fact scan at admission snapshot `snap` (the epoch the get answers
  /// at, so cache keys and scanned rows agree).
  Result<Cube> ExecuteUncached(const BoundCube& bound, const CubeQuery& query,
                               const FactSnapshot& snap) const;
  /// The scan driver call every scan goes through (solo gets, roll-ups,
  /// delta merges, MQO batches): runs `consumers` over source rows
  /// [begin, end), counts its morsels and annotates `span` with them and
  /// the kernel path.
  Result<std::vector<Cube>> Scan(Span& span, int64_t begin, int64_t end,
                                 std::vector<ScanConsumer>* consumers) const;
  /// Scan() with one consumer.
  Result<Cube> ScanOne(Span& span, int64_t begin, int64_t end,
                       ScanConsumer consumer) const;

  const StarDatabase* db_;
  bool use_views_;
  int threads_;
  std::shared_ptr<TaskPool> pool_;
  std::shared_ptr<CubeResultCache> cache_;
  WorkloadProfiler* profiler_ = nullptr;
  mutable std::atomic<uint64_t> morsels_scanned_{0};
  mutable std::atomic<uint64_t> morsels_skipped_{0};
  mutable std::atomic<uint64_t> rows_visited_{0};
  mutable std::atomic<uint64_t> rows_passed_{0};
  mutable bool last_used_view_ = false;
  mutable CacheOutcome last_cache_outcome_ = CacheOutcome::kBypass;
};

}  // namespace assess

#endif  // ASSESS_STORAGE_STAR_QUERY_ENGINE_H_
