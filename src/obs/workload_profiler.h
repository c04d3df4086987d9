#ifndef ASSESS_OBS_WORKLOAD_PROFILER_H_
#define ASSESS_OBS_WORKLOAD_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cube_cache.h"
#include "cache/query_fingerprint.h"
#include "olap/cube_schema.h"

namespace assess {

/// \brief The workload profile: which queries a server spends its time on.
///
/// The stats table already counts queries, cache outcomes and latency; what
/// no counter row can say is *which* logical queries cost the time. This
/// store answers that one question. It is keyed by the *epoch-less*
/// canonical query fingerprint (cache/query_fingerprint.h with the epoch
/// forced to 0, so one logical query aggregates across ingest epochs) and
/// keeps, per fingerprint, a display string, the execution count, the total
/// time spent answering it and its cache outcomes. The report lists the top
/// fingerprints by total time.
///
/// The store is sharded; hot-path updates are relaxed atomics, and a shard
/// mutex is held only for the map lookup and LRU bump. Memory is bounded by
/// an LRU cap with an explicit `evicted_fingerprints` counter, so eviction
/// is visible, never silent. The profiler is independent of ASSESS_TRACING,
/// and the `obs.profile` failpoint makes RecordQuery drop samples so chaos
/// tests can prove a broken profiler only moves the dropped-samples
/// counter, never a query result.

struct WorkloadProfilerOptions {
  /// Number of independent shards (map + LRU + mutex each). More shards
  /// mean less contention between concurrent sessions.
  int shards = 8;
  /// Process-wide fingerprint cap (split evenly across shards). The least
  /// recently touched fingerprint is evicted past it, and every eviction
  /// increments evicted_fingerprints().
  size_t max_fingerprints = 4096;
};

/// \brief One fingerprint's profile, copied out of the store.
struct WorkloadEntrySnapshot {
  std::string display;  ///< canonical rendering, e.g. "SALES <month> {...}"
  uint64_t executions = 0;
  uint64_t total_us = 0;  ///< summed get latency, microseconds
  uint64_t exact_hits = 0;
  uint64_t subsumption_hits = 0;
  uint64_t misses = 0;  ///< scans, including cache-bypassing engines
};

/// \brief Profile totals and the fingerprints that cost the most time.
struct WorkloadReport {
  /// Entries listed in `top`.
  static constexpr size_t kTopQueries = 10;

  uint64_t fingerprints = 0;          ///< live entries across all shards
  uint64_t evicted_fingerprints = 0;  ///< LRU evictions so far
  uint64_t total_queries = 0;         ///< every record, evicted or not
  uint64_t dropped_samples = 0;       ///< samples lost to obs.profile
  /// Highest total_us first; ties broken by display text.
  std::vector<WorkloadEntrySnapshot> top;

  /// \brief JSON rendering (the HTTP /workload endpoint).
  std::string ToJson() const;
};

/// \brief The sharded profile store. Thread-safe; one instance is shared by
/// every session of a server.
class WorkloadProfiler {
 public:
  explicit WorkloadProfiler(WorkloadProfilerOptions options = {});

  /// Kill switch (--workload-profile=off): when disabled, RecordQuery
  /// returns immediately without touching the store.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief Records one executed get and returns how many times its
  /// fingerprint has now been seen (EXPLAIN ANALYZE's `seen` attribute);
  /// 0 means the sample was not recorded (disabled or failpoint-dropped).
  /// `canon` is the canonicalized query; its epoch is ignored.
  uint64_t RecordQuery(const CubeSchema& schema, CanonicalQuery canon,
                       CacheOutcome outcome, double latency_ms);

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

  /// \brief Totals and the top fingerprints by total time, from a
  /// point-in-time copy of each shard.
  WorkloadReport BuildReport() const;

 private:
  struct Entry {
    std::string display;
    std::atomic<uint64_t> executions{0};
    std::atomic<uint64_t> total_us{0};
    std::atomic<uint64_t> exact_hits{0};
    std::atomic<uint64_t> subsumption_hits{0};
    std::atomic<uint64_t> misses{0};
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

  size_t shard_cap_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> total_queries_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace assess

#endif  // ASSESS_OBS_WORKLOAD_PROFILER_H_
