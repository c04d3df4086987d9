#ifndef ASSESS_BENCH_BENCH_UTIL_H_
#define ASSESS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "assess/session.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "ssb/ssb_generator.h"
#include "ssb/workload.h"

namespace assess::bench {

/// Repetitions per measurement (the paper averages 5 runs); override with
/// ASSESS_BENCH_REPS.
inline int RepsFromEnv(int fallback = 3) {
  const char* env = std::getenv("ASSESS_BENCH_REPS");
  if (env == nullptr || *env == '\0') return fallback;
  int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

/// Default base scale factor: SSB1 = 0.02 (120k lineorders), so the series
/// SSB1/SSB10/SSB100 spans 1.2e5..1.2e7 facts on a laptop-class machine
/// while preserving the paper's 1:10:100 ratio. Override with
/// ASSESS_SSB_BASE_SF (e.g. 0.1 for a 6e5..6e7 series).
inline double DefaultBaseSf() { return BaseScaleFactorFromEnv(0.02); }

/// Builds one scale point of the series, reporting progress on stderr so
/// long generations are visible.
inline std::unique_ptr<StarDatabase> BuildScale(const SsbScalePoint& point,
                                                bool include_budget = true) {
  std::fprintf(stderr, "[bench] generating %s (SF %.3g, %lld lineorders)...\n",
               point.name.c_str(), point.scale_factor,
               static_cast<long long>(SsbFactCount(point.scale_factor)));
  SsbConfig config;
  config.scale_factor = point.scale_factor;
  config.include_budget = include_budget;
  auto db = BuildSsbDatabase(config);
  if (!db.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

/// Engine options of the paper's plan benches: no result cache. The plans
/// of one statement issue overlapping gets (NP's get C is JOP's left input),
/// so with a cache every plan after the first would be timed answering from
/// its predecessors' results instead of running its own gets.
inline ExecutorOptions PlanBenchOptions() {
  ExecutorOptions options;
  options.use_result_cache = false;
  return options;
}

/// The q-quantile (0 <= q <= 1) of `values`, interpolating between ranks;
/// 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

struct RunStats {
  StepTimings mean;            // averaged over repetitions
  std::vector<double> totals;  // per-repetition totals, in run order
  int64_t cells = 0;           // |result|
  double total() const { return mean.Total(); }
  double median() const { return Quantile(totals, 0.5); }
  double iqr() const {
    return Quantile(totals, 0.75) - Quantile(totals, 0.25);
  }
};

/// Executes one query under a per-call trace (when tracing is compiled in),
/// so the returned StepTimings are the span-tree view — the breakdown
/// benches then read the same clock as EXPLAIN ANALYZE. With
/// ASSESS_TRACING=OFF the trace is inert and the executor's stopwatches
/// fill the timings as before.
inline Result<AssessResult> TracedQuery(const AssessSession& session,
                                        const std::string& text,
                                        PlanKind plan) {
  TraceContext trace;
  TraceContext::Scope scope(&trace);
  return session.Query(text, plan);
}

/// Runs `text` under `plan` `reps` times and averages the step timings
/// (mirroring Section 6.2's repeated-execution protocol).
inline RunStats RunStatement(const AssessSession& session,
                             const std::string& text, PlanKind plan,
                             int reps) {
  RunStats stats;
  for (int r = 0; r < reps; ++r) {
    auto result = TracedQuery(session, text, plan);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    const StepTimings& t = result->timings;
    stats.mean.get_c += t.get_c / reps;
    stats.mean.get_b += t.get_b / reps;
    stats.mean.get_cb += t.get_cb / reps;
    stats.mean.transform += t.transform / reps;
    stats.mean.join += t.join / reps;
    stats.mean.compare += t.compare / reps;
    stats.mean.label += t.label / reps;
    stats.cells = result->cube.NumRows();
  }
  return stats;
}

/// Runs `text` under every plan in `plans`, interleaving repetitions
/// round-robin so slow system drift does not bias one plan, and averages
/// per plan, keeping each repetition's total for the noise band. Mirrors
/// Section 6.2's repeated-execution protocol.
inline std::vector<RunStats> RunStatementsInterleaved(
    const AssessSession& session, const std::string& text,
    const std::vector<PlanKind>& plans, int reps) {
  std::vector<RunStats> stats(plans.size());
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < plans.size(); ++i) {
      auto result = TracedQuery(session, text, plans[i]);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      const StepTimings& t = result->timings;
      stats[i].mean.get_c += t.get_c / reps;
      stats[i].mean.get_b += t.get_b / reps;
      stats[i].mean.get_cb += t.get_cb / reps;
      stats[i].mean.transform += t.transform / reps;
      stats[i].mean.join += t.join / reps;
      stats[i].mean.compare += t.compare / reps;
      stats[i].mean.label += t.label / reps;
      stats[i].totals.push_back(t.Total());
      stats[i].cells = result->cube.NumRows();
    }
  }
  return stats;
}

/// Formats seconds in a fixed width for the tables.
inline std::string Secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%8.3f", s);
  return buf;
}

}  // namespace assess::bench

#endif  // ASSESS_BENCH_BENCH_UTIL_H_
