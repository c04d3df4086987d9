// Multi-query optimization tests: the shared-scan engine primitive is
// bit-identical to solo execution, the server's micro-batch collector
// produces the same answers batched as unbatched under a concurrent mixed
// workload (the TSan target for the MQO paths), \analyze reports shared
// scans, graceful drain flushes a pending window, an injected batch
// failure poisons only its own group, and the collector picks the same
// consumers whatever order a window's requests arrived in.

#include "server/mqo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "assess/session.h"
#include "client/assess_client.h"
#include "common/failpoint.h"
#include "olap/cube_query.h"
#include "server/assessd.h"
#include "server/protocol.h"
#include "ssb/sales_generator.h"
#include "storage/star_query_engine.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;

// ---------------------------------------------------------------------------
// Engine-level shared-scan tests over the generated SALES database.
// ---------------------------------------------------------------------------

/// Cell map keyed by coordinate with the measure's raw bits, so "equal"
/// means bit-identical doubles, not approximately-equal ones.
std::map<std::vector<std::string>, uint64_t> BitMap(const Cube& cube,
                                                    int measure) {
  std::map<std::vector<std::string>, uint64_t> out;
  for (int64_t r = 0; r < cube.NumRows(); ++r) {
    std::vector<std::string> key;
    for (int l = 0; l < cube.level_count(); ++l) {
      key.push_back(cube.CoordName(r, l));
    }
    double v = cube.MeasureAt(r, measure);
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    out[std::move(key)] = bits;
  }
  return out;
}

class SharedScanTest : public ::testing::Test {
 protected:
  SharedScanTest() {
    SalesConfig config;
    config.facts = 200000;
    config.seed = 11;
    auto db = BuildSalesDatabase(config);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    auto bound = db_->Find("SALES");
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    sales_ = *bound;
  }

  CubeQuery Query(const std::vector<std::string>& by,
                  std::vector<Predicate> predicates,
                  const std::vector<std::string>& measures) {
    auto q = CubeQuery::Make(sales_->schema(), "SALES", by,
                             std::move(predicates), measures);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(*q);
  }

  /// The first `n` country member names of the Store hierarchy — a shared
  /// selection every query in a batch slices on.
  std::vector<std::string> Countries(int n) {
    const Hierarchy& store = sales_->schema().hierarchy(3);
    n = std::min(n, store.LevelCardinality(2));
    std::vector<std::string> out;
    for (int id = 0; id < n; ++id) out.push_back(store.MemberName(2, id));
    return out;
  }

  /// One correlated batch: same selection, five different group-by sets and
  /// measure subsets (integer-valued quantity and non-integer store
  /// measures both represented).
  std::vector<CubeQuery> CorrelatedBatch() {
    std::vector<Predicate> preds{
        {3, 2, PredicateOp::kIn, Countries(3)}};
    return {
        Query({"month"}, preds, {"quantity"}),
        Query({"product"}, preds, {"storeSales"}),
        Query({"month", "country"}, preds, {"quantity", "storeCost"}),
        Query({"year"}, preds, {"storeSales", "quantity"}),
        Query({"country"}, preds, {"quantity", "storeSales", "storeCost"}),
    };
  }

  std::unique_ptr<StarDatabase> db_;
  const BoundCube* sales_ = nullptr;
};

TEST_F(SharedScanTest, BitIdenticalToSoloExecute) {
  std::vector<Predicate> preds{{3, 2, PredicateOp::kIn, Countries(3)}};
  const std::vector<std::vector<CubeQuery>> batches = {
      // Predicated, grouped, dense-kernel consumers: the compacted path.
      CorrelatedBatch(),
      // A no-group-by consumer rides along, compacted like the others: it
      // is the dense kernel with a two-slot key space.
      {
          Query({"month"}, preds, {"quantity"}),
          Query({}, preds, {"quantity", "storeSales"}),
          Query({"country"}, preds, {"storeCost"}),
      },
      // date x customer x country spans more keys than max(4096, rows)
      // (asserted below): the generic hash kernel inside a shared scan.
      {
          Query({"date", "customer", "country"}, preds, {"storeSales"}),
          Query({"year"}, preds, {"quantity", "storeSales"}),
      },
      // No predicate: no shared selection, every consumer runs its solo
      // kernel over every row.
      {
          Query({"month"}, {}, {"quantity"}),
          Query({"product", "country"}, {}, {"storeSales", "storeCost"}),
          Query({}, {}, {"storeSales"}),
      },
  };

  const CubeSchema& schema = sales_->schema();
  const int64_t key_space =
      int64_t{schema.hierarchy(0).LevelCardinality(0) + 1} *
          (schema.hierarchy(1).LevelCardinality(0) + 1) *
          (schema.hierarchy(3).LevelCardinality(2) + 1) +
      1;
  ASSERT_GT(key_space, std::max<int64_t>(4096, sales_->facts().NumRows()));

  // The reference: each query alone, serial, uncached, through the normal
  // fact-table scan path.
  StarQueryEngine solo(db_.get(), /*use_views=*/false, /*threads=*/1);
  for (size_t b = 0; b < batches.size(); ++b) {
    const std::vector<CubeQuery>& queries = batches[b];
    for (int threads : {1, 4}) {
      EngineOptions options;
      options.use_views = false;
      options.threads = threads;
      options.use_result_cache = true;
      StarQueryEngine shared(db_.get(), options);
      auto results = shared.ExecuteSharedScan(queries, 0);
      ASSERT_TRUE(results.ok()) << results.status().ToString();
      ASSERT_EQ(results->size(), queries.size());

      for (size_t i = 0; i < queries.size(); ++i) {
        auto expected = solo.Execute(queries[i]);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        const Cube& lhs = *expected;
        const Cube& rhs = (*results)[i];
        ASSERT_EQ(lhs.NumRows(), rhs.NumRows())
            << "batch " << b << " threads " << threads << " query " << i;
        ASSERT_EQ(lhs.measure_count(), rhs.measure_count()) << "query " << i;
        for (int m = 0; m < lhs.measure_count(); ++m) {
          EXPECT_EQ(lhs.measure_name(m), rhs.measure_name(m));
          EXPECT_EQ(BitMap(lhs, m), BitMap(rhs, m))
              << "batch " << b << " threads " << threads << " query " << i
              << " measure " << lhs.measure_name(m);
        }
      }
    }
  }
}

TEST_F(SharedScanTest, SharedScanSeedsTheResultCache) {
  std::vector<CubeQuery> queries = CorrelatedBatch();
  EngineOptions options;
  options.use_views = false;
  options.threads = 2;
  options.use_result_cache = true;
  StarQueryEngine engine(db_.get(), options);
  auto results = engine.ExecuteSharedScan(queries, 0);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  // Every member of the batch now answers from the cache without a scan —
  // this is how the server's collector makes batched sessions cheap.
  for (const CubeQuery& query : queries) {
    auto hit = engine.Execute(query);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(engine.last_cache_outcome(), CacheOutcome::kExactHit);
  }
}

TEST_F(SharedScanTest, StaleEpochReturnsUnavailable) {
  std::vector<CubeQuery> queries = CorrelatedBatch();
  StarQueryEngine engine(db_.get(), /*use_views=*/false, /*threads=*/1);
  auto stale =
      engine.ExecuteSharedScan(queries, sales_->facts().epoch() + 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
}

TEST_F(SharedScanTest, MixedPredicateConjunctionsAreRejected) {
  std::vector<Predicate> italy{{3, 2, PredicateOp::kIn, Countries(1)}};
  std::vector<CubeQuery> mixed{
      Query({"month"}, italy, {"quantity"}),
      Query({"month"}, {}, {"quantity"}),
  };
  StarQueryEngine engine(db_.get(), /*use_views=*/false, /*threads=*/1);
  auto result = engine.ExecuteSharedScan(mixed, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Server-level tests over MiniSales (mirrors server_test.cc's workload).
// ---------------------------------------------------------------------------

const char* kSibling =
    "with SALES for country = 'Italy' by product, country assess quantity "
    "against country = 'France' labels quartiles";
const char* kConstant =
    "with SALES by month assess sales against 10 labels quartiles";
const char* kPast =
    "with SALES for month = '1997-07' by month, store assess sales "
    "against past 2 labels quartiles";
const char* kRollup = "with SALES by month assess sales labels quartiles";

std::vector<std::string> MixedStatements() {
  return {kSibling, kConstant, kPast, kRollup};
}

/// Everything except timings must match bit-for-bit (same helper as
/// server_test.cc — duplicated because both live in anonymous namespaces).
void ExpectSameComputation(const AssessResult& expected,
                           const AssessResult& actual) {
  EXPECT_EQ(expected.plan, actual.plan);
  EXPECT_EQ(expected.measure, actual.measure);
  EXPECT_EQ(expected.benchmark_measure, actual.benchmark_measure);
  EXPECT_EQ(expected.comparison_measure, actual.comparison_measure);
  EXPECT_EQ(expected.sql, actual.sql);
  const Cube& lhs = expected.cube;
  const Cube& rhs = actual.cube;
  ASSERT_EQ(lhs.level_count(), rhs.level_count());
  ASSERT_EQ(lhs.measure_count(), rhs.measure_count());
  ASSERT_EQ(lhs.NumRows(), rhs.NumRows());
  for (int l = 0; l < lhs.level_count(); ++l) {
    EXPECT_EQ(lhs.level(l).name(), rhs.level(l).name());
    for (int64_t r = 0; r < lhs.NumRows(); ++r) {
      ASSERT_EQ(lhs.CoordName(r, l), rhs.CoordName(r, l))
          << "row " << r << " level " << l;
    }
  }
  for (int m = 0; m < lhs.measure_count(); ++m) {
    EXPECT_EQ(lhs.measure_name(m), rhs.measure_name(m));
    for (int64_t r = 0; r < lhs.NumRows(); ++r) {
      double x = lhs.MeasureAt(r, m), y = rhs.MeasureAt(r, m);
      ASSERT_EQ(std::isnan(x), std::isnan(y));
      if (!std::isnan(x)) {
        ASSERT_EQ(x, y) << "row " << r << " measure " << m;
      }
    }
  }
  EXPECT_EQ(lhs.labels(), rhs.labels());
}

class MqoServerTest : public ::testing::Test {
 protected:
  MqoServerTest() : mini_(BuildMiniSales()) {}

  std::unique_ptr<AssessServer> StartServer(ServerOptions options = {}) {
    auto server = std::make_unique<AssessServer>(mini_.db.get(), options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  AssessClient ConnectOrDie(const AssessServer& server) {
    auto client = AssessClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// In-process reference results, one per mixed statement.
  std::vector<AssessResult> ExpectedResults() {
    AssessSession local(mini_.db.get());
    std::vector<AssessResult> out;
    for (const std::string& statement : MixedStatements()) {
      auto r = local.Query(statement);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(std::move(*r));
    }
    return out;
  }

  testutil::MiniDb mini_;
};

/// The property the whole layer hangs on: a concurrent mixed workload gets
/// bit-identical answers whether the window is 0 (MQO off) or wide open,
/// at every thread interleaving TSan can find.
TEST_F(MqoServerTest, BatchedResultsMatchUnbatchedAcrossWindows) {
  constexpr int kClients = 6;
  constexpr int kRoundsPerClient = 3;
  std::vector<std::string> statements = MixedStatements();
  std::vector<AssessResult> expected = ExpectedResults();
  ASSERT_EQ(expected.size(), statements.size());

  for (int64_t window_us : {int64_t{0}, int64_t{100000}}) {
    ServerOptions options;
    options.worker_threads = 4;
    options.mqo_window_us = window_us;
    options.mqo_max_batch = 64;
    auto server = StartServer(options);

    std::atomic<int> failures{0};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        AssessClient client = ConnectOrDie(*server);
        // Per-thread deterministic shuffle so concurrent batches mix
        // duplicates and distinct shapes.
        std::vector<int> order;
        for (int round = 0; round < kRoundsPerClient; ++round) {
          for (size_t s = 0; s < statements.size(); ++s) {
            order.push_back(static_cast<int>(s));
          }
        }
        std::mt19937 rng(1234 + t);
        std::shuffle(order.begin(), order.end(), rng);

        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (int index : order) {
          auto remote = client.Query(statements[index]);
          if (!remote.ok()) {
            ADD_FAILURE() << "client " << t << ": "
                          << remote.status().ToString();
            failures.fetch_add(1);
            return;
          }
          ExpectSameComputation(expected[index], *remote);
        }
      });
    }
    while (ready.load() < kClients) std::this_thread::yield();
    go.store(true);
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "window_us=" << window_us;

    ServerStats stats = server->Snapshot();
    if (window_us == 0) {
      EXPECT_EQ(stats.mqo_batches, 0u);
      EXPECT_EQ(stats.mqo_shared_scans, 0u);
    } else {
      // Six clients fire their first statements into one open window;
      // four distinct statements means some group holds >= 2 by
      // pigeonhole.
      EXPECT_GT(stats.mqo_queries_batched, 0u);
      EXPECT_GE(stats.mqo_shared_scans, 1u);

      // The counters travel the wire as stats v6 and render in \stats.
      AssessClient client = ConnectOrDie(*server);
      auto remote_stats = client.Stats();
      ASSERT_TRUE(remote_stats.ok()) << remote_stats.status().ToString();
      EXPECT_EQ(remote_stats->mqo_batches, stats.mqo_batches);
      EXPECT_EQ(remote_stats->mqo_shared_scans, stats.mqo_shared_scans);
      EXPECT_NE(remote_stats->ToString().find("mqo:"), std::string::npos);
    }
    server->Stop();
  }
}

/// \analyze on a query that shared a batch-mate's scan says so.
TEST_F(MqoServerTest, ExplainAnalyzeReportsSharedScan) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "needs ASSESS_TRACING=ON";
  // Concurrency makes the co-arrival timing-dependent; a fresh server per
  // attempt keeps the cache cold so the group actually forms.
  bool reported = false;
  for (int attempt = 0; attempt < 5 && !reported; ++attempt) {
    ServerOptions options;
    options.worker_threads = 2;
    options.mqo_window_us = 200000;
    options.mqo_max_batch = 8;
    auto server = StartServer(options);

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::string> texts(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        AssessClient client = ConnectOrDie(*server);
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        auto text = client.ExplainAnalyze(kRollup);
        ASSERT_TRUE(text.ok()) << text.status().ToString();
        texts[t] = std::move(*text);
      });
    }
    while (ready.load() < 2) std::this_thread::yield();
    go.store(true);
    for (std::thread& thread : threads) thread.join();
    server->Stop();

    reported =
        texts[0].find("mqo: shared scan with 2 queries") !=
            std::string::npos &&
        texts[1].find("mqo: shared scan with 2 queries") != std::string::npos;
  }
  EXPECT_TRUE(reported)
      << "two concurrent identical queries never co-batched in 5 attempts";
}

/// Stop() while a window is open: the held request is flushed and answered,
/// not abandoned — the client's promise resolves long before the window
/// would have expired on its own.
TEST_F(MqoServerTest, DrainFlushesPendingWindow) {
  ServerOptions options;
  options.worker_threads = 2;
  options.mqo_window_us = int64_t{10} * 1000 * 1000;  // 10 s: never expires
  auto server = StartServer(options);
  std::vector<AssessResult> expected = ExpectedResults();

  std::atomic<bool> issued{false};
  Result<AssessResult> remote = Status::Internal("never ran");
  std::thread client_thread([&] {
    AssessClient client = ConnectOrDie(*server);
    issued.store(true);
    remote = client.Query(kConstant);
  });
  while (!issued.load()) std::this_thread::yield();
  // Let the request reach the collector's window, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto start = std::chrono::steady_clock::now();
  server->Stop();
  client_thread.join();
  auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ExpectSameComputation(expected[1], *remote);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
}

/// An injected failure in one shared-scan group rejects that group's
/// members with the typed code and leaves every other query unharmed.
TEST_F(MqoServerTest, FailpointPoisonsOnlyItsGroup) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  std::vector<AssessResult> expected = ExpectedResults();

  bool saw_injected_error = false;
  for (int attempt = 0; attempt < 5 && !saw_injected_error; ++attempt) {
    ServerOptions options;
    options.worker_threads = 2;
    options.mqo_window_us = 300000;
    options.mqo_max_batch = 8;
    options.allow_failpoint_admin = true;
    auto server = StartServer(options);
    {
      AssessClient admin = ConnectOrDie(*server);
      auto armed = admin.Failpoint("mqo.batch=error(internal):budget=1");
      ASSERT_TRUE(armed.ok()) << armed.status().ToString();
    }

    // Two exact-duplicate groups racing into one window; whichever group
    // trips the budget=1 failpoint fails whole, the other succeeds.
    struct Outcome {
      int statement;
      Result<AssessResult> result = Status::Internal("never ran");
    };
    std::vector<Outcome> outcomes(4);
    outcomes[0].statement = 1;  // kConstant
    outcomes[1].statement = 1;
    outcomes[2].statement = 0;  // kSibling
    outcomes[3].statement = 0;
    std::vector<std::string> statements = MixedStatements();

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        AssessClient client = ConnectOrDie(*server);
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        outcomes[t].result = client.Query(statements[outcomes[t].statement]);
      });
    }
    while (ready.load() < 4) std::this_thread::yield();
    go.store(true);
    for (std::thread& thread : threads) thread.join();

    int errors = 0;
    for (Outcome& outcome : outcomes) {
      if (outcome.result.ok()) {
        ExpectSameComputation(expected[outcome.statement], *outcome.result);
      } else {
        // Only the injected code ever surfaces; no mangled results, no
        // connection loss.
        EXPECT_EQ(outcome.result.status().code(), StatusCode::kInternal)
            << outcome.result.status().ToString();
        ++errors;
      }
    }
    // One group holds at most two of the four queries.
    EXPECT_LE(errors, 2);
    saw_injected_error = errors > 0;

    // The failpoint's budget is spent; the same workload now succeeds.
    AssessClient client = ConnectOrDie(*server);
    auto after = client.Query(kConstant);
    EXPECT_TRUE(after.ok()) << after.status().ToString();
    server->Stop();
    FailpointRegistry::Instance().DisarmAll();
  }
  EXPECT_TRUE(saw_injected_error)
      << "failpoint never fired inside a shared-scan group in 5 attempts";
}


// ---------------------------------------------------------------------------
// Collector-level tests: a MqoCollector driven directly, no server.
// ---------------------------------------------------------------------------

/// Runs one window of `statements` through a fresh collector (its own
/// cache, so nothing is answered before the window) and returns its stats
/// once every request has been handed back.
MqoStats RunOneWindow(const StarDatabase* db,
                      const std::vector<std::string>& statements) {
  std::atomic<int> handed_back{0};
  MqoCollector::Hooks hooks;
  hooks.enqueue = [&](void*, const std::string&) { ++handed_back; };
  hooks.reject = [&](void*, const Status& status) {
    ADD_FAILURE() << "rejected: " << status.ToString();
    ++handed_back;
  };
  MqoOptions options;
  options.window_us = int64_t{10} * 1000 * 1000;  // flushes on max_batch
  options.max_batch = static_cast<int>(statements.size());
  MqoCollector collector(db, EngineOptions{}, options, std::move(hooks));
  std::vector<int> tokens(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    EXPECT_TRUE(collector.Submit(&tokens[i], statements[i]));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (handed_back.load() < static_cast<int>(statements.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(handed_back.load(), static_cast<int>(statements.size()));
  collector.Stop();
  return collector.stats();
}

/// Which member of a window rides which scan must not depend on which
/// request reached the window first: a fine get and a coarse get it
/// answers select the same consumers in either arrival order.
TEST(MqoCollectorTest, ConsumerSelectionIgnoresArrivalOrder) {
  testutil::MiniDb mini = BuildMiniSales();
  const std::string fine = "with SALES by date assess sales labels quartiles";
  const std::string coarse = kRollup;  // by month: rolls up from by date
  const MqoStats fine_first = RunOneWindow(mini.db.get(), {fine, coarse});
  const MqoStats coarse_first = RunOneWindow(mini.db.get(), {coarse, fine});

  // The fine get is the one consumer; the coarse get piggybacks on it.
  EXPECT_EQ(fine_first.batches, 1u);
  EXPECT_EQ(fine_first.queries_batched, 2u);
  EXPECT_EQ(fine_first.shared_scans, 1u);
  EXPECT_EQ(fine_first.queries_piggybacked, 1u);

  EXPECT_EQ(coarse_first.batches, fine_first.batches);
  EXPECT_EQ(coarse_first.queries_batched, fine_first.queries_batched);
  EXPECT_EQ(coarse_first.shared_scans, fine_first.shared_scans);
  EXPECT_EQ(coarse_first.queries_piggybacked, fine_first.queries_piggybacked);
}

}  // namespace
}  // namespace assess
