// The semantic result cache: canonical fingerprinting, exact-hit identity
// with the uncached path, subsumption-aware reuse equivalence with cold
// scans, byte-budget eviction, and cross-session sharing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "assess/session.h"
#include "cache/cube_cache.h"
#include "cache/query_fingerprint.h"
#include "common/rng.h"
#include "ssb/sales_generator.h"
#include "storage/star_query_engine.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;
using ::assess::testutil::K;

EngineOptions CachedOptions(size_t budget = size_t{16} << 20, int shards = 4) {
  EngineOptions options;
  options.threads = 1;
  options.cache.budget_bytes = budget;
  options.cache.shards = shards;
  return options;
}

// Bit-exact cube comparison: same axes, same row order, same coordinate and
// measure bits.
void ExpectBitIdentical(const Cube& a, const Cube& b) {
  ASSERT_EQ(a.level_count(), b.level_count());
  ASSERT_EQ(a.measure_count(), b.measure_count());
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (int l = 0; l < a.level_count(); ++l) {
    EXPECT_EQ(a.level(l).name(), b.level(l).name());
    EXPECT_EQ(a.coord_column(l), b.coord_column(l));
  }
  for (int m = 0; m < a.measure_count(); ++m) {
    EXPECT_EQ(a.measure_name(m), b.measure_name(m));
    const auto& lhs = a.measure_column(m);
    const auto& rhs = b.measure_column(m);
    for (int64_t r = 0; r < a.NumRows(); ++r) {
      // memcmp-style equality (covers NaN), not FP tolerance.
      EXPECT_EQ(std::isnan(lhs[r]), std::isnan(rhs[r]));
      if (!std::isnan(lhs[r])) {
        EXPECT_EQ(lhs[r], rhs[r]);
      }
    }
  }
}

// As in parallel_engine_test.cc: aggregates re-reduced in a different order
// may differ in the last ulp.
void ExpectCellsNear(const Cube& expected, const Cube& actual,
                     const std::string& measure) {
  auto lhs = CellMap(expected, measure);
  auto rhs = CellMap(actual, measure);
  ASSERT_EQ(lhs.size(), rhs.size()) << measure;
  for (const auto& [coord, value] : lhs) {
    auto it = rhs.find(coord);
    ASSERT_NE(it, rhs.end()) << measure;
    EXPECT_NEAR(value, it->second, 1e-9 * (1.0 + std::fabs(value)))
        << measure;
  }
}

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : mini_(testutil::BuildMiniSales()) {}

  CubeQuery Query(const std::vector<std::string>& by,
                  std::vector<Predicate> preds,
                  const std::vector<std::string>& measures) {
    auto q = CubeQuery::Make(*mini_.schema, "SALES", by, std::move(preds),
                             measures);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  testutil::MiniDb mini_;
};

// --- Fingerprinting -------------------------------------------------------

TEST_F(CacheTest, EquivalentQueriesShareFingerprint) {
  CubeQuery a = Query({"product", "country"},
                      {{2, 1, PredicateOp::kIn, {"Italy", "France"}},
                       {1, 1, PredicateOp::kEquals, {"Fresh Fruit"}}},
                      {"quantity", "sales"});
  // Different surface form: swapped predicate order, shuffled/duplicated IN
  // members, swapped measure order, an alias.
  CubeQuery b = Query({"product", "country"},
                      {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
                       {2, 1, PredicateOp::kIn, {"France", "Italy", "France"}}},
                      {"sales", "quantity"});
  b.alias = "benchmark";
  EXPECT_EQ(FingerprintKey(CanonicalizeQuery(a)),
            FingerprintKey(CanonicalizeQuery(b)));
}

TEST_F(CacheTest, SingletonInCollapsesToEquals) {
  CubeQuery eq = Query({"product"}, {{2, 1, PredicateOp::kEquals, {"Italy"}}},
                       {"quantity"});
  CubeQuery in = Query({"product"}, {{2, 1, PredicateOp::kIn, {"Italy"}}},
                       {"quantity"});
  EXPECT_EQ(FingerprintKey(CanonicalizeQuery(eq)),
            FingerprintKey(CanonicalizeQuery(in)));
}

TEST_F(CacheTest, DistinctQueriesGetDistinctFingerprints) {
  CubeQuery base = Query({"product"}, {}, {"quantity"});
  CubeQuery other_group = Query({"type"}, {}, {"quantity"});
  CubeQuery other_measure = Query({"product"}, {}, {"sales"});
  CubeQuery with_pred =
      Query({"product"}, {{2, 1, PredicateOp::kEquals, {"Italy"}}},
            {"quantity"});
  // BETWEEN bounds are positional, not a sortable member set.
  CubeQuery between_ab = Query(
      {"product"}, {{0, 1, PredicateOp::kBetween, {"1997-01", "1997-05"}}},
      {"quantity"});
  CubeQuery between_ba = Query(
      {"product"}, {{0, 1, PredicateOp::kBetween, {"1997-05", "1997-01"}}},
      {"quantity"});
  const std::string key = FingerprintKey(CanonicalizeQuery(base));
  EXPECT_NE(key, FingerprintKey(CanonicalizeQuery(other_group)));
  EXPECT_NE(key, FingerprintKey(CanonicalizeQuery(other_measure)));
  EXPECT_NE(key, FingerprintKey(CanonicalizeQuery(with_pred)));
  EXPECT_NE(FingerprintKey(CanonicalizeQuery(between_ab)),
            FingerprintKey(CanonicalizeQuery(between_ba)));
}

// --- Exact hits -----------------------------------------------------------

TEST_F(CacheTest, ExactHitIsBitIdenticalToUncachedPath) {
  StarQueryEngine uncached(mini_.db.get(), /*use_views=*/true, 1);
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  CubeQuery q = Query({"product", "country"},
                      {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}}},
                      {"quantity", "sales"});
  Cube cold = *cached.Execute(q);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kMiss);
  Cube warm = *cached.Execute(q);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kExactHit);
  ExpectBitIdentical(cold, warm);
  ExpectBitIdentical(*uncached.Execute(q), warm);
  EXPECT_EQ(cached.cache_stats().exact_hits, 1u);
}

TEST_F(CacheTest, ExactHitServesAnyMeasureOrder) {
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  CubeQuery forward = Query({"country"}, {}, {"quantity", "sales"});
  CubeQuery reversed = Query({"country"}, {}, {"sales", "quantity"});
  Cube first = *cached.Execute(forward);
  Cube second = *cached.Execute(reversed);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kExactHit);
  ASSERT_EQ(second.measure_name(0), "sales");
  ASSERT_EQ(second.measure_name(1), "quantity");
  EXPECT_EQ(CellMap(first, "quantity"), CellMap(second, "quantity"));
  EXPECT_EQ(CellMap(first, "sales"), CellMap(second, "sales"));
}

TEST_F(CacheTest, AvgMeasuresAreExactHitEligible) {
  // Build a tiny cube with an avg measure: avg disqualifies re-aggregation
  // but not identity reuse.
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  DimensionTable dim("k", hier);
  dim.AddRow({hier->AddMember(0, "g1")});
  dim.AddRow({hier->AddMember(0, "g2")});
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"a", AggOp::kAvg});
  FactTable facts("T", 1, 1);
  facts.AddRow({0}, {2.0});
  facts.AddRow({0}, {4.0});
  facts.AddRow({1}, {10.0});
  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine cached(&db, CachedOptions());
  CubeQuery q = *CubeQuery::Make(*schema, "T", {"k"}, {}, {"a"});
  Cube cold = *cached.Execute(q);
  Cube warm = *cached.Execute(q);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kExactHit);
  ExpectBitIdentical(cold, warm);

  // But the fully aggregated roll-up of an avg must NOT reuse the cached
  // per-group averages (avg of avgs is wrong): it recomputes.
  CubeQuery all = *CubeQuery::Make(*schema, "T", {}, {}, {"a"});
  Cube total = *cached.Execute(all);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kMiss);
  EXPECT_NEAR(total.MeasureAt(0, 0), (2.0 + 4.0 + 10.0) / 3, 1e-12);
}

// --- Subsumption reuse ----------------------------------------------------

TEST_F(CacheTest, CoarserGroupByReusesFinerEntry) {
  StarQueryEngine uncached(mini_.db.get(), /*use_views=*/true, 1);
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  CubeQuery fine = Query({"product", "country"}, {}, {"quantity", "sales"});
  CubeQuery coarse = Query({"type"}, {}, {"quantity"});
  (void)*cached.Execute(fine);
  Cube warm = *cached.Execute(coarse);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kSubsumptionHit);
  ExpectCellsNear(*uncached.Execute(coarse), warm, "quantity");
  EXPECT_EQ(cached.cache_stats().subsumption_hits, 1u);
}

TEST_F(CacheTest, ExtraPredicateEvaluatedOnCachedCells) {
  StarQueryEngine uncached(mini_.db.get(), /*use_views=*/true, 1);
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  CubeQuery fine = Query({"product", "country"}, {}, {"quantity"});
  CubeQuery sliced = Query({"product"},
                           {{2, 1, PredicateOp::kEquals, {"Italy"}}},
                           {"quantity"});
  (void)*cached.Execute(fine);
  Cube warm = *cached.Execute(sliced);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kSubsumptionHit);
  ExpectCellsNear(*uncached.Execute(sliced), warm, "quantity");
  // Exact quantities from the paper's running example survive the reuse.
  auto cells = CellMap(warm, "quantity");
  EXPECT_EQ(cells[K("Apple")], 100);
  EXPECT_EQ(cells[K("Pear")], 90);
  EXPECT_EQ(cells[K("Lemon")], 30);
}

TEST_F(CacheTest, PredicatedEntryAnswersMatchingSlice) {
  StarQueryEngine uncached(mini_.db.get(), /*use_views=*/true, 1);
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  // Entry carries a predicate; a coarser query with the same predicate plus
  // an extra one must reuse it (entry preds ⊆ request preds).
  CubeQuery fine = Query({"product", "country"},
                         {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}}},
                         {"quantity"});
  CubeQuery coarse = Query({"country"},
                           {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
                            {2, 1, PredicateOp::kIn, {"Italy", "France"}}},
                           {"quantity"});
  (void)*cached.Execute(fine);
  Cube warm = *cached.Execute(coarse);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kSubsumptionHit);
  ExpectCellsNear(*uncached.Execute(coarse), warm, "quantity");
}

TEST_F(CacheTest, DisjointPredicateDoesNotReuse) {
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  CubeQuery italy = Query({"product", "country"},
                          {{2, 1, PredicateOp::kEquals, {"Italy"}}},
                          {"quantity"});
  CubeQuery all = Query({"product"}, {}, {"quantity"});
  (void)*cached.Execute(italy);
  // The unpredicated query needs rows the Italy slice does not contain.
  (void)*cached.Execute(all);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kMiss);
}

TEST_F(CacheTest, PredicateFinerThanEntryGroupByDoesNotReuse) {
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  // Entry at month granularity cannot evaluate a date-level slice.
  CubeQuery by_month = Query({"month"}, {}, {"quantity"});
  CubeQuery by_year_date_slice =
      Query({"year"}, {{0, 0, PredicateOp::kEquals, {"1997-07-01"}}},
            {"quantity"});
  (void)*cached.Execute(by_month);
  (void)*cached.Execute(by_year_date_slice);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kMiss);
}

TEST_F(CacheTest, SubsumptionPrefersSmallestQualifyingEntry) {
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  CubeQuery finest = Query({"product", "country"}, {}, {"quantity"});
  CubeQuery mid = Query({"type", "country"}, {}, {"quantity"});
  CubeQuery coarse = Query({"type"}, {}, {"quantity"});
  Cube finest_cube = *cached.Execute(finest);
  Cube mid_cube = *cached.Execute(mid);
  ASSERT_LT(mid_cube.NumRows(), finest_cube.NumRows());
  (void)*cached.Execute(coarse);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kSubsumptionHit);
  // Both entries qualify; the matcher must pick the mid-size one. Observable
  // through EntryAnswersQuery plus the row counts asserted above.
  auto want = CanonicalizeQuery(coarse);
  EXPECT_TRUE(EntryAnswersQuery(*mini_.schema, want, CanonicalizeQuery(mid)));
  EXPECT_TRUE(
      EntryAnswersQuery(*mini_.schema, want, CanonicalizeQuery(finest)));
}

TEST_F(CacheTest, SubsumptionResultSeedsExactEntry) {
  StarQueryEngine cached(mini_.db.get(), CachedOptions());
  CubeQuery fine = Query({"product", "country"}, {}, {"quantity"});
  CubeQuery coarse = Query({"type"}, {}, {"quantity"});
  (void)*cached.Execute(fine);
  Cube rolled = *cached.Execute(coarse);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kSubsumptionHit);
  Cube again = *cached.Execute(coarse);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kExactHit);
  ExpectBitIdentical(rolled, again);
}

// Larger, randomized equivalence: every warm answer (exact or subsumed)
// matches a cold engine on generated SALES data.
TEST_F(CacheTest, WarmAnswersMatchColdScansOnGeneratedData) {
  SalesConfig config;
  config.facts = 20000;
  auto db = std::move(BuildSalesDatabase(config)).value();
  const BoundCube* sales = *db->Find("SALES");
  StarQueryEngine cold(db.get(), /*use_views=*/true, 1);
  StarQueryEngine warm(db.get(), CachedOptions());
  // Generated SALES schema: date(0), customer(1), product(2), store(3);
  // country is level 2 of the store hierarchy.
  auto make = [&](const std::vector<std::string>& by,
                  std::vector<Predicate> preds) {
    return *CubeQuery::Make(sales->schema(), "SALES", by, std::move(preds),
                            {"quantity", "storeSales"});
  };
  std::vector<CubeQuery> queries = {
      make({"product", "country", "month"}, {}),
      make({"product", "country"}, {}),
      make({"type", "country"}, {}),
      make({"type"}, {{3, 2, PredicateOp::kEquals, {"Italy"}}}),
      make({"country"}, {{2, 1, PredicateOp::kEquals, {"Fresh Fruit"}}}),
      make({"year", "type"}, {}),
      make({"month", "country"},
           {{0, 2, PredicateOp::kIn, {"1996", "1997"}}}),
      make({}, {}),
  };
  // Two passes: the second is fully warm; both must match the cold engine.
  for (int pass = 0; pass < 2; ++pass) {
    for (const CubeQuery& q : queries) {
      Cube expected = *cold.Execute(q);
      Cube actual = *warm.Execute(q);
      ExpectCellsNear(expected, actual, "quantity");
      ExpectCellsNear(expected, actual, "storeSales");
    }
  }
  CacheStats stats = warm.cache_stats();
  EXPECT_EQ(stats.lookups, 16u);
  EXPECT_GT(stats.subsumption_hits, 0u);
  EXPECT_GT(stats.exact_hits, 0u);
  EXPECT_EQ(stats.lookups,
            stats.exact_hits + stats.subsumption_hits + stats.misses);
}

// --- Accounting and eviction ----------------------------------------------

TEST_F(CacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  CacheOptions options;
  options.shards = 1;
  // Measure one entry's footprint, then budget for about three of them.
  CubeQuery q = Query({"product", "country"}, {}, {"quantity"});
  StarQueryEngine engine(mini_.db.get(), /*use_views=*/true, 1);
  Cube cube = *engine.Execute(q);
  size_t entry_bytes = EstimateCubeBytes(cube) + 64;
  options.budget_bytes = 3 * (entry_bytes + sizeof(void*) * 8);
  CubeResultCache cache(options);

  for (int i = 0; i < 8; ++i) {
    cache.Insert("key" + std::to_string(i), CanonicalizeQuery(q), cube);
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 8u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_resident, options.budget_bytes);
  EXPECT_EQ(stats.entries + stats.evictions, stats.insertions);
  // The survivors are the most recently inserted keys.
  EXPECT_TRUE(cache.FindExact("key7").has_value());
  EXPECT_FALSE(cache.FindExact("key0").has_value());
}

// Only the winner of a subsumption lookup is bumped to most-recently-used:
// a larger answering entry the walk passed before reaching the smaller
// winner stays the eviction candidate it was.
TEST_F(CacheTest, SubsumptionBumpsOnlyTheWinner) {
  StarQueryEngine engine(mini_.db.get(), /*use_views=*/false, 1);
  CubeQuery small_q = Query({"type", "country"}, {}, {"quantity"});
  CubeQuery large_q = Query({"product", "country"}, {}, {"quantity"});
  CubeQuery other_q = Query({"year"}, {}, {"quantity"});  // cannot answer
  CubeQuery want_q = Query({"country"}, {}, {"quantity"});
  Cube small = *engine.Execute(small_q);
  Cube large = *engine.Execute(large_q);
  Cube other = *engine.Execute(other_q);
  ASSERT_LT(small.NumRows(), large.NumRows());
  ASSERT_LE(other.NumRows(), large.NumRows());

  // Keys of equal length: an entry's footprint depends on its cube only.
  auto insert_all = [&](CubeResultCache* cache) {
    cache->Insert("small", CanonicalizeQuery(small_q), small);
    cache->Insert("large", CanonicalizeQuery(large_q), large);
    cache->Insert("other", CanonicalizeQuery(other_q), other);
  };
  CacheOptions options;
  options.shards = 1;
  CubeResultCache probe(options);
  insert_all(&probe);
  options.budget_bytes = probe.stats().bytes_resident;  // exactly all three
  CubeResultCache cache(options);
  insert_all(&cache);  // LRU, most recent first: other, large, small
  ASSERT_EQ(cache.stats().evictions, 0u);

  auto found = cache.FindSubsuming(*mini_.schema, CanonicalizeQuery(want_q));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->cube.NumRows(), small.NumRows());

  // One more entry the size of "other" overflows the budget by at most the
  // least recently used entry, which must be "large", not "other".
  cache.Insert("fresh", CanonicalizeQuery(other_q), other);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Contains("large"));
  EXPECT_TRUE(cache.Contains("small"));
  EXPECT_TRUE(cache.Contains("other"));
  EXPECT_TRUE(cache.Contains("fresh"));
}

TEST_F(CacheTest, OversizedResultsAreNotCached) {
  CacheOptions options;
  options.shards = 1;
  options.budget_bytes = 16;  // smaller than any real result
  CubeResultCache cache(options);
  CubeQuery q = Query({"product"}, {}, {"quantity"});
  StarQueryEngine engine(mini_.db.get(), /*use_views=*/true, 1);
  cache.Insert(FingerprintKey(CanonicalizeQuery(q)), CanonicalizeQuery(q),
               *engine.Execute(q));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST_F(CacheTest, EngineHonorsBudgetEndToEnd) {
  // A deliberately tiny budget: the engine keeps running correctly while
  // the cache evicts behind it.
  StarQueryEngine cached(mini_.db.get(), CachedOptions(2048, 1));
  StarQueryEngine uncached(mini_.db.get(), /*use_views=*/true, 1);
  std::vector<CubeQuery> queries = {
      Query({"product", "country"}, {}, {"quantity", "sales"}),
      Query({"month", "product"}, {}, {"quantity"}),
      Query({"date", "store"}, {}, {"sales"}),
      Query({"month", "store", "product"}, {}, {"quantity", "sales"}),
  };
  for (int pass = 0; pass < 3; ++pass) {
    for (const CubeQuery& q : queries) {
      ExpectCellsNear(*uncached.Execute(q), *cached.Execute(q), "quantity");
    }
  }
  CacheStats stats = cached.cache_stats();
  EXPECT_LE(stats.bytes_resident, cached.result_cache()->budget_bytes());
}

// --- Sharing and concurrency ----------------------------------------------

TEST_F(CacheTest, SharedCacheServesASecondSession) {
  auto shared = std::make_shared<CubeResultCache>(CacheOptions{});
  ExecutorOptions options;
  options.threads = 1;
  options.shared_cache = shared;
  AssessSession first(mini_.db.get(), options);
  AssessSession second(mini_.db.get(), options);
  const char* text =
      "with SALES for type = 'Fresh Fruit', country = 'Italy' "
      "by product, country assess quantity against country = 'France' "
      "using difference(quantity, benchmark.quantity) labels quartiles";
  auto cold = first.Query(text);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  uint64_t hits_before = shared->stats().hits();
  auto warm = second.Query(text);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(shared->stats().hits(), hits_before);
  EXPECT_EQ(CellMap(cold->cube, cold->comparison_measure),
            CellMap(warm->cube, warm->comparison_measure));
}

TEST_F(CacheTest, ConcurrentSessionsOnOneCacheAgree) {
  auto shared = std::make_shared<CubeResultCache>(CacheOptions{});
  StarQueryEngine baseline(mini_.db.get(), /*use_views=*/true, 1);
  std::vector<CubeQuery> queries = {
      Query({"product", "country"}, {}, {"quantity"}),
      Query({"type"}, {}, {"quantity"}),
      Query({"country"}, {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}}},
            {"quantity"}),
      Query({"month"}, {}, {"quantity"}),
  };
  std::vector<std::map<std::vector<std::string>, double>> expected;
  for (const CubeQuery& q : queries) {
    expected.push_back(CellMap(*baseline.Execute(q), "quantity"));
  }
  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      EngineOptions options;
      options.threads = 1;
      options.shared_cache = shared;
      StarQueryEngine engine(mini_.db.get(), options);
      Rng rng(t + 1);
      for (int i = 0; i < 200; ++i) {
        size_t pick = rng.Uniform(static_cast<int>(queries.size()));
        auto result = engine.Execute(queries[pick]);
        if (!result.ok() ||
            CellMap(*result, "quantity") != expected[pick]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(shared->stats().hits(), 0u);
}

}  // namespace
}  // namespace assess
