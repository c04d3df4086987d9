#include "obs/workload_profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace assess {
namespace {

std::string DisplayQuery(const CubeSchema& schema,
                         const CanonicalQuery& canon) {
  std::string out = canon.cube_name;
  out += " ";
  out += canon.group_by.ToString(schema);
  if (!canon.predicates.empty()) {
    out += " {";
    for (size_t i = 0; i < canon.predicates.size(); ++i) {
      if (i > 0) out += ", ";
      out += canon.predicates[i].ToString(schema);
    }
    out += "}";
  }
  // Measures are part of the fingerprint, so they are part of the display:
  // one display string per live fingerprint.
  out += " [";
  for (size_t i = 0; i < canon.measures.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.measure(canon.measures[i]).name;
  }
  out += "]";
  return out;
}

}  // namespace

WorkloadProfiler::WorkloadProfiler(WorkloadProfilerOptions options) {
  const size_t shards = static_cast<size_t>(std::max(1, options.shards));
  shard_cap_ = std::max(options.max_fingerprints, shards) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<WorkloadProfiler::Entry> WorkloadProfiler::Touch(
    const std::string& key, const CubeSchema& schema,
    const CanonicalQuery& canon) {
  Shard& shard =
      *shards_[std::hash<std::string>{}(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // LRU bump: splice is O(1) and invalidates nothing.
    shard.order.splice(shard.order.begin(), shard.order, it->second->lru);
    return it->second;
  }
  auto entry = std::make_shared<Entry>();
  entry->display = DisplayQuery(schema, canon);
  shard.order.push_front(key);
  entry->lru = shard.order.begin();
  shard.entries.emplace(key, entry);
  while (shard.entries.size() > shard_cap_ && shard.order.size() > 1) {
    const std::string& victim = shard.order.back();
    shard.entries.erase(victim);
    shard.order.pop_back();
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

uint64_t WorkloadProfiler::RecordQuery(const CubeSchema& schema,
                                       CanonicalQuery canon,
                                       CacheOutcome outcome,
                                       double latency_ms) {
  if (!enabled()) return 0;
  // Chaos site: a "failing" profiler drops the sample and moves a counter —
  // it can never fail the query that was being profiled.
  if (ASSESS_FAILPOINT_TRIGGERED("obs.profile")) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  canon.epoch = 0;  // epoch-less: one profile row per logical query
  std::shared_ptr<Entry> entry = Touch(FingerprintKey(canon), schema, canon);
  const uint64_t seen =
      entry->executions.fetch_add(1, std::memory_order_relaxed) + 1;
  entry->total_us.fetch_add(static_cast<uint64_t>(latency_ms * 1000.0 + 0.5),
                            std::memory_order_relaxed);
  switch (outcome) {
    case CacheOutcome::kExactHit:
      entry->exact_hits.fetch_add(1, std::memory_order_relaxed);
      break;
    case CacheOutcome::kSubsumptionHit:
      entry->subsumption_hits.fetch_add(1, std::memory_order_relaxed);
      break;
    case CacheOutcome::kMiss:
    case CacheOutcome::kBypass:
      entry->misses.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  total_queries_.fetch_add(1, std::memory_order_relaxed);
  return seen;
}

uint64_t WorkloadProfiler::fingerprints() const {
  uint64_t live = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    live += shard->entries.size();
  }
  return live;
}

WorkloadReport WorkloadProfiler::BuildReport() const {
  WorkloadReport report;
  report.evicted_fingerprints = evicted_fingerprints();
  report.total_queries = total_queries();
  report.dropped_samples = dropped_samples();

  std::vector<WorkloadEntrySnapshot> all;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) {
      WorkloadEntrySnapshot snap;
      snap.display = entry->display;
      snap.executions = entry->executions.load(std::memory_order_relaxed);
      snap.total_us = entry->total_us.load(std::memory_order_relaxed);
      snap.exact_hits = entry->exact_hits.load(std::memory_order_relaxed);
      snap.subsumption_hits =
          entry->subsumption_hits.load(std::memory_order_relaxed);
      snap.misses = entry->misses.load(std::memory_order_relaxed);
      all.push_back(std::move(snap));
    }
  }
  report.fingerprints = all.size();

  // Deterministic order: most total time first, display text as the
  // tiebreak.
  const size_t top = std::min(all.size(), WorkloadReport::kTopQueries);
  std::partial_sort(all.begin(), all.begin() + top, all.end(),
                    [](const WorkloadEntrySnapshot& a,
                       const WorkloadEntrySnapshot& b) {
                      if (a.total_us != b.total_us) {
                        return a.total_us > b.total_us;
                      }
                      return a.display < b.display;
                    });
  all.resize(top);
  report.top = std::move(all);
  return report;
}

std::string WorkloadReport::ToJson() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"fingerprints\": %" PRIu64
                ", \"evicted_fingerprints\": %" PRIu64
                ", \"total_queries\": %" PRIu64
                ", \"dropped_samples\": %" PRIu64 ", \"top\": [",
                fingerprints, evicted_fingerprints, total_queries,
                dropped_samples);
  std::string out = buf;
  for (size_t i = 0; i < top.size(); ++i) {
    const WorkloadEntrySnapshot& e = top[i];
    out += i > 0 ? ", {\"query\": \"" : "{\"query\": \"";
    AppendJsonEscaped(&out, e.display);
    std::snprintf(buf, sizeof(buf),
                  "\", \"executions\": %" PRIu64 ", \"total_ms\": %.3f"
                  ", \"exact_hits\": %" PRIu64
                  ", \"subsumption_hits\": %" PRIu64 ", \"misses\": %" PRIu64
                  "}",
                  e.executions, static_cast<double>(e.total_us) / 1000.0,
                  e.exact_hits, e.subsumption_hits, e.misses);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace assess
