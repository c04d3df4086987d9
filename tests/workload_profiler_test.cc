// The workload profiler: epoch-less aggregation, the kill switch, LRU order
// and the eviction counter, the sharded store under concurrency, the
// obs.profile failpoint, and the top-by-total-time report.

#include "obs/workload_profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_fingerprint.h"
#include "common/failpoint.h"
#include "olap/cube_query.h"
#include "test_util.h"

namespace assess {
namespace {

// MiniDb hierarchies: 0 = Date (date >= month >= year), 1 = Product
// (product >= type), 2 = Store (store >= country). Level 0 is finest.

class WorkloadProfilerTest : public ::testing::Test {
 protected:
  WorkloadProfilerTest() : mini_(testutil::BuildMiniSales()) {}

  CubeQuery Query(const std::vector<std::string>& by,
                  std::vector<Predicate> preds,
                  const std::vector<std::string>& measures) {
    auto q = CubeQuery::Make(*mini_.schema, "SALES", by, std::move(preds),
                             measures);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  uint64_t Record(WorkloadProfiler& profiler, const CubeQuery& query,
                  CacheOutcome outcome = CacheOutcome::kMiss,
                  double latency_ms = 1.0) {
    return profiler.RecordQuery(*mini_.schema, CanonicalizeQuery(query),
                                outcome, latency_ms);
  }

  testutil::MiniDb mini_;
};

// --- The store ------------------------------------------------------------

TEST_F(WorkloadProfilerTest, AggregatesAcrossEpochsUnderOneFingerprint) {
  WorkloadProfiler profiler;
  CubeQuery q = Query({"product"}, {}, {"quantity"});
  CanonicalQuery canon = CanonicalizeQuery(q);
  canon.epoch = 3;
  profiler.RecordQuery(*mini_.schema, canon, CacheOutcome::kMiss, 1.0);
  canon.epoch = 7;  // same logical query after an ingest epoch bump
  EXPECT_EQ(profiler.RecordQuery(*mini_.schema, canon,
                                 CacheOutcome::kExactHit, 0.1),
            2u);
  EXPECT_EQ(profiler.fingerprints(), 1u);
  WorkloadReport report = profiler.BuildReport();
  ASSERT_EQ(report.top.size(), 1u);
  EXPECT_EQ(report.top[0].executions, 2u);
  EXPECT_EQ(report.top[0].total_us, 1100u);
  EXPECT_EQ(report.top[0].misses, 1u);
  EXPECT_EQ(report.top[0].exact_hits, 1u);
  EXPECT_EQ(report.top[0].display, "SALES <product> [quantity]");
}

TEST_F(WorkloadProfilerTest, DisabledProfilerRecordsNothing) {
  WorkloadProfiler profiler;
  profiler.set_enabled(false);
  CubeQuery q = Query({"product"}, {}, {"quantity"});
  EXPECT_EQ(Record(profiler, q), 0u);
  EXPECT_EQ(profiler.fingerprints(), 0u);
  EXPECT_EQ(profiler.total_queries(), 0u);

  profiler.set_enabled(true);
  EXPECT_EQ(Record(profiler, q), 1u);
}

TEST_F(WorkloadProfilerTest, LruCapEvictsColdestAndCountsEvictions) {
  WorkloadProfilerOptions options;
  options.shards = 1;
  options.max_fingerprints = 4;
  WorkloadProfiler profiler(options);

  const std::vector<std::string> levels = {"date", "month",  "year",
                                           "product", "type", "store"};
  for (const std::string& level : levels) {
    Record(profiler, Query({level}, {}, {"quantity"}));
  }
  EXPECT_EQ(profiler.fingerprints(), 4u);
  EXPECT_EQ(profiler.evicted_fingerprints(), 2u);
  // Every record still counted, evicted or not.
  EXPECT_EQ(profiler.total_queries(), levels.size());
  EXPECT_EQ(profiler.BuildReport().evicted_fingerprints, 2u);

  // Touching a survivor protects it from the next eviction (LRU, not FIFO):
  // "year" (third-oldest) gets bumped, then a new query evicts "product".
  Record(profiler, Query({"year"}, {}, {"quantity"}));
  Record(profiler, Query({"country"}, {}, {"quantity"}));
  WorkloadReport report = profiler.BuildReport();
  bool saw_year = false;
  bool saw_product = false;
  for (const WorkloadEntrySnapshot& e : report.top) {
    if (e.display.find("<year>") != std::string::npos) saw_year = true;
    if (e.display.find("<product>") != std::string::npos) saw_product = true;
  }
  EXPECT_TRUE(saw_year);
  EXPECT_FALSE(saw_product);
}

TEST_F(WorkloadProfilerTest, ShardedStoreIsCoherentUnderConcurrentRecording) {
  WorkloadProfiler profiler;
  const std::vector<std::string> levels = {"date",    "month", "year",
                                           "product", "type",  "store",
                                           "country", "day"};
  std::vector<CubeQuery> queries;
  for (const std::string& level : levels) {
    if (level == "day") {
      queries.push_back(Query({"date", "product"}, {}, {"quantity"}));
    } else {
      queries.push_back(Query({level}, {}, {"quantity"}));
    }
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::atomic<bool> stop{false};
  // A reader thread hammers BuildReport()/fingerprints() while writers
  // record: under TSan this proves snapshotting never races the hot path.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      WorkloadReport report = profiler.BuildReport();
      ASSERT_LE(report.fingerprints, queries.size());
      (void)profiler.fingerprints();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const CubeQuery& q = queries[(t + i) % queries.size()];
        profiler.RecordQuery(*mini_.schema, CanonicalizeQuery(q),
                             i % 2 == 0 ? CacheOutcome::kMiss
                                        : CacheOutcome::kExactHit,
                             0.5);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(profiler.total_queries(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(profiler.fingerprints(), queries.size());
  WorkloadReport report = profiler.BuildReport();
  uint64_t executions = 0;
  uint64_t total_us = 0;
  for (const WorkloadEntrySnapshot& e : report.top) {
    executions += e.executions;
    total_us += e.total_us;
    EXPECT_EQ(e.exact_hits + e.misses, e.executions);
  }
  EXPECT_EQ(executions, static_cast<uint64_t>(kThreads) * kIters);
  // Every sample added exactly its 500 µs: no update was lost.
  EXPECT_EQ(total_us, static_cast<uint64_t>(kThreads) * kIters * 500);
}

TEST_F(WorkloadProfilerTest, ObsProfileFailpointOnlyMovesDroppedCounter) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  WorkloadProfiler profiler;
  CubeQuery q = Query({"product"}, {}, {"quantity"});
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .ArmFromString("obs.profile=error:budget=2")
                  .ok());
  EXPECT_EQ(Record(profiler, q), 0u);
  EXPECT_EQ(Record(profiler, q), 0u);
  // Budget exhausted: the third record lands normally.
  EXPECT_EQ(Record(profiler, q), 1u);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(profiler.dropped_samples(), 2u);
  EXPECT_EQ(profiler.total_queries(), 1u);
}

// --- Report ---------------------------------------------------------------

TEST_F(WorkloadProfilerTest, ReportRanksByTotalTime) {
  WorkloadProfiler profiler;
  // The most frequent query is not the most expensive one: 9 x 1 ms cache
  // hits lose to 2 x 8 ms scans, which lose to nothing.
  CubeQuery frequent = Query({"month", "country"}, {}, {"quantity"});
  CubeQuery costly = Query({"year"}, {}, {"quantity"});
  CubeQuery tied_a = Query({"type"}, {}, {"quantity"});
  CubeQuery tied_b = Query({"store"}, {}, {"quantity"});
  for (int i = 0; i < 9; ++i) {
    Record(profiler, frequent, CacheOutcome::kExactHit, 1.0);
  }
  Record(profiler, costly, CacheOutcome::kMiss, 8.0);
  Record(profiler, costly, CacheOutcome::kSubsumptionHit, 8.0);
  Record(profiler, tied_b, CacheOutcome::kMiss, 3.0);
  Record(profiler, tied_a, CacheOutcome::kMiss, 3.0);

  WorkloadReport report = profiler.BuildReport();
  EXPECT_EQ(report.fingerprints, 4u);
  EXPECT_EQ(report.total_queries, 13u);
  ASSERT_EQ(report.top.size(), 4u);
  EXPECT_EQ(report.top[0].display, "SALES <year> [quantity]");
  EXPECT_EQ(report.top[0].total_us, 16000u);
  EXPECT_EQ(report.top[0].executions, 2u);
  EXPECT_EQ(report.top[0].misses, 1u);
  EXPECT_EQ(report.top[0].subsumption_hits, 1u);
  EXPECT_EQ(report.top[1].display, "SALES <month, country> [quantity]");
  EXPECT_EQ(report.top[1].total_us, 9000u);
  EXPECT_EQ(report.top[1].exact_hits, 9u);
  // Equal totals fall back to the display text, whatever the record order.
  EXPECT_EQ(report.top[2].display, "SALES <store> [quantity]");
  EXPECT_EQ(report.top[3].display, "SALES <type> [quantity]");

  // The list is capped, keeping the most expensive entries.
  for (int month = 3; month <= 7; ++month) {
    const std::string member = "1997-0" + std::to_string(month);
    for (const char* measure : {"quantity", "sales"}) {
      Record(profiler,
             Query({"date"}, {{0, 1, PredicateOp::kEquals, {member}}},
                   {measure}),
             CacheOutcome::kMiss, 0.5);
    }
  }
  report = profiler.BuildReport();
  EXPECT_EQ(report.fingerprints, 14u);
  ASSERT_EQ(report.top.size(), WorkloadReport::kTopQueries);
  EXPECT_EQ(report.top[0].display, "SALES <year> [quantity]");
  for (size_t i = 1; i < report.top.size(); ++i) {
    EXPECT_GE(report.top[i - 1].total_us, report.top[i].total_us);
  }

  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"fingerprints\": 14"), std::string::npos);
  EXPECT_NE(json.find("\"top\": [{\"query\": \"SALES <year> [quantity]\", "
                      "\"executions\": 2, \"total_ms\": 16.000"),
            std::string::npos);
}

}  // namespace
}  // namespace assess
