#ifndef ASSESS_OBS_WORKLOAD_PROFILER_H_
#define ASSESS_OBS_WORKLOAD_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/query_fingerprint.h"
#include "obs/metrics.h"
#include "olap/cube_schema.h"
#include "olap/group_by_set.h"

namespace assess {

/// \brief Workload intelligence: a process-wide profile of the queries a
/// server (or local session) actually executes, aggregated over the cube
/// lattice into a materialized-view advisor report.
///
/// Three layers:
///
///   - WorkloadProfiler: a sharded store keyed by the *epoch-less* canonical
///     query fingerprint (cache/query_fingerprint.h with epoch forced to 0,
///     so one logical query aggregates across ingest epochs). Per
///     fingerprint it records execution counts, latency / rows-scanned /
///     morsels-skipped histograms, cache outcomes and MQO piggyback counts,
///     plus the query's lattice node. Hot-path updates are relaxed atomics;
///     the shard mutex is held only for the map lookup and LRU bump.
///     Memory is bounded by an LRU cap with an explicit
///     `evicted_fingerprints` counter — eviction is visible, never silent.
///
///   - LatticeHeat: rolls per-fingerprint stats up the roll-up lattice of
///     one cube. A query's *candidate node* is the finest level it touches
///     per hierarchy (group-by or selection) — exactly the applicability
///     condition of EntryAnswersQuery (cache/cube_cache.h), so a view
///     materialized at a candidate node is guaranteed to answer the queries
///     that heated it.
///
///   - The greedy advisor (Harinarayan–Rajaraman–Ullman style lattice
///     selection over the observed candidate set): repeatedly picks the
///     node whose materialization saves the most scanned rows across the
///     profiled workload, charging later picks only the remaining benefit.
///     Surfaced as a *report* — top-N recommended MVs with estimated row
///     counts and expected scan savings — not as automatic materialization.
///
/// The profiler is independent of ASSESS_TRACING (it profiles identities
/// and counters, not spans); the `obs.profile` failpoint makes RecordQuery
/// drop samples so chaos tests can prove a broken profiler only moves the
/// dropped-samples counter, never a query result.

/// \brief How one profiled get was answered (mirrors the engine's
/// CacheOutcome without dragging storage/ headers into obs/).
enum class WorkloadOutcome {
  kBypass,          ///< result cache disabled for this engine
  kMiss,            ///< computed by scan (fact table or view)
  kExactHit,        ///< served from an identical cached result
  kSubsumptionHit,  ///< re-aggregated from a finer cached result
};

struct WorkloadProfilerOptions {
  /// Number of independent shards (map + LRU + mutex each). More shards
  /// mean less contention between concurrent sessions.
  int shards = 8;
  /// Process-wide fingerprint cap (split evenly across shards). The least
  /// recently touched fingerprint is evicted past it, and every eviction
  /// increments evicted_fingerprints().
  size_t max_fingerprints = 4096;
  /// Entries listed in the report, hottest first.
  int top_queries = 10;
  /// Lattice nodes listed in the report's heat section.
  int top_nodes = 8;
  /// Views the greedy advisor may recommend.
  int max_recommendations = 3;
};

/// \brief One fingerprint's aggregated profile, copied out of the store.
struct WorkloadEntrySnapshot {
  std::string cube;
  std::string display;  ///< canonical rendering, e.g. "SALES <month> {...}"
  std::string lattice;  ///< candidate node, e.g. "<date, country>"
  /// Candidate lattice node: per hierarchy, the finest level the query
  /// touches (group-by or predicate), -1 for ALL (hierarchy untouched).
  std::vector<int> node;
  uint64_t executions = 0;
  uint64_t exact_hits = 0;
  uint64_t subsumption_hits = 0;
  uint64_t misses = 0;
  uint64_t piggybacked = 0;  ///< answered by an MQO batch-mate's shared scan
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t rows_scanned = 0;     ///< total rows the scans touched
  uint64_t morsels_skipped = 0;  ///< total morsels zone maps pruned
};

/// \brief Aggregated heat of one candidate lattice node: the demand a view
/// materialized there could absorb.
struct LatticeHeatNode {
  std::string cube;
  std::string node;  ///< rendered, e.g. "<date, country>"
  std::vector<int> levels;
  uint64_t fingerprints = 0;  ///< distinct profiled queries it answers
  uint64_t executions = 0;    ///< their summed execution counts
  int64_t estimated_rows = 0; ///< product of level cardinalities, capped at
                              ///< the cube's fact rows
};

/// \brief One greedy recommendation: materialize `cube` at `level_names`.
struct MvRecommendation {
  std::string cube;
  std::string node;  ///< rendered node
  /// Level names of the node, directly consumable by
  /// StarQueryEngine::MaterializeView.
  std::vector<std::string> level_names;
  int64_t estimated_rows = 0;
  uint64_t queries_covered = 0;     ///< distinct fingerprints answered
  uint64_t executions_covered = 0;  ///< their summed execution counts
  /// Expected rows *not* scanned per profiled window: for each covered
  /// query, executions × (current answer cost − view rows), where cost is
  /// the fact table until an earlier recommendation already covers it.
  double expected_scan_savings = 0.0;
};

/// \brief The advisor report: profile totals, hottest fingerprints, lattice
/// heat, and the greedy view selection.
struct WorkloadReport {
  uint64_t fingerprints = 0;          ///< live entries across all shards
  uint64_t evicted_fingerprints = 0;  ///< LRU evictions so far
  uint64_t total_queries = 0;         ///< executions profiled (not evicted-
                                      ///< adjusted: counts every record)
  uint64_t piggybacked = 0;           ///< MQO piggybacks profiled
  uint64_t dropped_samples = 0;       ///< samples lost to obs.profile
  std::vector<WorkloadEntrySnapshot> top;
  std::vector<LatticeHeatNode> heat;
  std::vector<MvRecommendation> recommendations;

  /// \brief Multi-line human rendering (kWorkloadReply, `\workload`).
  std::string ToText() const;
  /// \brief JSON rendering (the HTTP /workload endpoint).
  std::string ToJson() const;
};

/// \brief The lattice aggregation + greedy scoring over one cube, exposed
/// separately so tests can oracle-check the roll-up on synthetic shapes.
class LatticeHeat {
 public:
  /// What the advisor needs to know about a cube, captured at record time
  /// so report building never touches the database.
  struct CubeShape {
    std::string cube;
    int64_t fact_rows = 0;
    /// level_names[h][l] / level_cardinality[h][l] for hierarchy h.
    std::vector<std::vector<std::string>> level_names;
    std::vector<std::vector<int64_t>> level_cardinality;
  };

  explicit LatticeHeat(CubeShape shape) : shape_(std::move(shape)) {}

  /// \brief Adds one profiled fingerprint whose candidate node is `node`
  /// (-1 = ALL per hierarchy), executed `executions` times.
  void Add(const std::vector<int>& node, uint64_t executions);

  /// \brief True when a view materialized at `view` answers a query whose
  /// candidate node is `query`: every hierarchy the query touches is
  /// present in the view at a finer-or-equal level (level 0 is finest).
  static bool Covers(const std::vector<int>& view,
                     const std::vector<int>& query);

  /// \brief Estimated rows of a view at `node`: the product of its level
  /// cardinalities, capped at the cube's fact rows.
  int64_t EstimatedRows(const std::vector<int>& node) const;

  /// \brief Renders a node as "<date, country>" from the shape's names.
  std::string Render(const std::vector<int>& node) const;

  /// \brief Level names of `node` (MaterializeView's input form).
  std::vector<std::string> LevelNames(const std::vector<int>& node) const;

  /// \brief The roll-up: every observed candidate node, with the
  /// fingerprints/executions of *all* observed queries it covers (its own
  /// plus every coarser query it could answer), hottest first.
  std::vector<LatticeHeatNode> Nodes() const;

  /// \brief Classic greedy lattice selection over the observed candidate
  /// set: picks up to `max_recommendations` nodes by descending remaining
  /// scan savings; stops early once no node saves anything.
  std::vector<MvRecommendation> Greedy(int max_recommendations) const;

  const CubeShape& shape() const { return shape_; }

 private:
  struct Observed {
    uint64_t fingerprints = 0;
    uint64_t executions = 0;
  };

  CubeShape shape_;
  std::map<std::vector<int>, Observed> observed_;  // ordered => deterministic
};

/// \brief The sharded profile store. Thread-safe; one instance is shared by
/// every session of a server (and by the MQO collector).
class WorkloadProfiler {
 public:
  explicit WorkloadProfiler(WorkloadProfilerOptions options = {});

  /// \brief The process-wide instance local (in-process) front-ends share.
  /// assessd servers own their instance instead, so tests hosting several
  /// servers in one process keep their profiles apart.
  static WorkloadProfiler& Process();

  /// Kill switch (--workload-profile=off): when disabled, RecordQuery and
  /// RecordPiggyback return immediately without touching the store.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief What RecordQuery tells the caller, for the EXPLAIN ANALYZE
  /// surface ("lattice node <d1, d2>, seen N× this window"). count == 0
  /// means the sample was not recorded (disabled or failpoint-dropped).
  struct Seen {
    uint64_t count = 0;
    std::string lattice;
  };

  /// \brief Records one executed get. `canon` is the canonicalized query
  /// (its epoch is ignored — the profile key is epoch-less); `fact_rows`
  /// is the cube's committed row count at execution time, feeding the
  /// advisor's cost model. Behind the `obs.profile` failpoint: a triggered
  /// site drops the sample into dropped_samples() and nothing else.
  Seen RecordQuery(const CubeSchema& schema, const CanonicalQuery& canon,
                   WorkloadOutcome outcome, double latency_ms,
                   uint64_t rows_scanned, uint64_t morsels_skipped,
                   int64_t fact_rows);

  /// \brief Records that one query was answered by an MQO batch-mate's
  /// shared scan instead of its own execution.
  void RecordPiggyback(const CubeSchema& schema, const CanonicalQuery& canon);

  uint64_t fingerprints() const;  ///< live entries across all shards
  uint64_t evicted_fingerprints() const {
    return evicted_.load(std::memory_order_relaxed);
  }
  uint64_t total_queries() const {
    return total_queries_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_samples() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// \brief Builds the full report: totals, hottest fingerprints, lattice
  /// heat and greedy recommendations, all from a point-in-time copy.
  WorkloadReport BuildReport() const;

  const WorkloadProfilerOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string cube;
    std::string display;
    std::string lattice;
    std::vector<int> node;
    std::atomic<uint64_t> executions{0};
    std::atomic<uint64_t> exact_hits{0};
    std::atomic<uint64_t> subsumption_hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> piggybacked{0};
    std::atomic<uint64_t> rows_scanned{0};
    std::atomic<uint64_t> morsels_skipped{0};
    Histogram latency_ms{Histogram::LatencyBoundsMs()};
    Histogram rows_hist{Histogram::ExponentialBounds(4096, 4.0, 12)};
    Histogram skip_hist{Histogram::ExponentialBounds(1, 4.0, 12)};
    std::list<std::string>::iterator lru;  // guarded by the shard mutex
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries;
    std::list<std::string> order;  // front = most recently touched
  };

  /// Finds or creates the entry for `key`, bumping its LRU position and
  /// evicting past the shard cap. The returned shared_ptr keeps the entry
  /// alive even if a concurrent insert evicts it mid-update.
  std::shared_ptr<Entry> Touch(const std::string& key,
                               const CubeSchema& schema,
                               const CanonicalQuery& canon);
  void RememberCube(const CubeSchema& schema, const std::string& cube,
                    int64_t fact_rows);

  WorkloadProfilerOptions options_;
  size_t shard_cap_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Cube shapes for the advisor, captured on first sight (cardinalities
  /// from the live schema; fact rows refreshed on every record).
  mutable std::mutex cube_mutex_;
  std::map<std::string, LatticeHeat::CubeShape> cubes_;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> total_queries_{0};
  std::atomic<uint64_t> total_piggybacked_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// \brief The candidate lattice node of one canonical query: per hierarchy,
/// the finest level touched by its group-by or predicates, -1 for ALL.
/// Matches EntryAnswersQuery's roll-up condition, so a view at this
/// node always answers the query.
std::vector<int> CandidateNode(const CubeSchema& schema,
                               const CanonicalQuery& canon);

}  // namespace assess

#endif  // ASSESS_OBS_WORKLOAD_PROFILER_H_
