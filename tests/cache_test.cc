// The semantic result cache: canonical fingerprinting, exact-hit identity
// with the uncached path, subsumption-aware reuse equivalence with cold
// scans, byte-budget eviction, and cross-session sharing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>
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
  EXPECT_NE(cache.FindExact("key7"), nullptr);
  EXPECT_EQ(cache.FindExact("key0"), nullptr);
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
  ASSERT_NE(found, nullptr);
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


// --- The lattice index ----------------------------------------------------

// A cube of `rows` cells with no axes: the index and the answerability test
// read an entry's query and row count only.
Cube CubeOfRows(int64_t rows) {
  return Cube::FromColumns({}, {}, {"quantity"},
                           {std::vector<double>(static_cast<size_t>(rows))});
}

// The mini schema's lattice: date(date, month, year), product(product,
// type), store(store, country); measures quantity, sales.
CubeQuery RawQuery(const std::vector<std::pair<int, int>>& by,
                   std::vector<Predicate> preds, std::vector<int> measures) {
  CubeQuery q;
  q.cube_name = "SALES";
  q.group_by = GroupBySet(3);
  for (const auto& [h, level] : by) q.group_by.SetLevel(h, level);
  q.predicates = std::move(preds);
  q.measures = std::move(measures);
  return q;
}

// The work of a miss depends on the entries that could answer it, not on
// how many are resident: an explore-shaped session (every entry its own
// date range) adds entries no later request can use.
TEST_F(CacheTest, SubsumptionProbesPerMissDoNotGrowWithEntries) {
  auto probes_per_miss = [&](int entries) {
    CubeResultCache cache;
    // Two unpredicated entries: one at a node the requests roll up from
    // (reached, but it cannot evaluate a date-level range), one at a node
    // they do not (never reached).
    std::vector<CubeQuery> background = {
        RawQuery({{0, 1}, {1, 0}, {2, 1}}, {}, {0}),
        RawQuery({{0, 2}}, {}, {0}),
    };
    for (const CubeQuery& q : background) {
      CanonicalQuery canon = CanonicalizeQuery(q);
      cache.Insert(FingerprintKey(canon), canon, CubeOfRows(50));
    }
    auto range = [](int i) {
      return Predicate{0, 0, PredicateOp::kBetween,
                       {"d" + std::to_string(10000 + 2 * i),
                        "d" + std::to_string(10001 + 2 * i)}};
    };
    for (int i = 0; i < entries; ++i) {
      CanonicalQuery canon = CanonicalizeQuery(RawQuery(
          {{1, 1}, {2, 1}},
          {range(i), {2, 1, PredicateOp::kIn, {"France", "Italy"}}}, {0}));
      cache.Insert(FingerprintKey(canon), canon, CubeOfRows(20 + i % 7));
    }
    EXPECT_EQ(cache.stats().entries, static_cast<size_t>(entries) + 2);
    constexpr int kMisses = 20;
    for (int i = 0; i < kMisses; ++i) {
      const Predicate italy{2, 1, PredicateOp::kEquals, {"Italy"}};
      CanonicalQuery want = CanonicalizeQuery(
          RawQuery({{1, 1}}, {range(entries + i), italy}, {0}));
      EXPECT_EQ(cache.FindSubsuming(*mini_.schema, want), nullptr);
    }
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, static_cast<uint64_t>(kMisses));
    EXPECT_EQ(stats.subsumption_hits, 0u);
    return static_cast<double>(stats.subsumption_probes) / kMisses;
  };
  const double at_100 = probes_per_miss(100);
  const double at_1000 = probes_per_miss(1000);
  EXPECT_EQ(at_100, 1.0);  // the one reachable background entry
  EXPECT_EQ(at_1000, at_100);
}

// The reference rule, written from the definition rather than from the
// cache's code: same cube and epoch; requested measures ⊆ entry measures;
// entry predicates ⊆ request predicates; no avg measure; and per hierarchy,
// the entry's level is finer-or-equal than the finest level the request's
// group-by or unapplied predicates touch.
bool ReferenceAnswers(const CubeSchema& schema, const CanonicalQuery& want,
                      const CanonicalQuery& entry) {
  if (want.cube_name != entry.cube_name || want.epoch != entry.epoch) {
    return false;
  }
  std::set<int> have(entry.measures.begin(), entry.measures.end());
  for (int m : want.measures) {
    if (!have.count(m) || schema.measure(m).op == AggOp::kAvg) return false;
  }
  std::set<std::string> wanted;
  for (const Predicate& p : want.predicates) wanted.insert(PredicateKey(p));
  std::set<std::string> applied;
  for (const Predicate& p : entry.predicates) {
    if (!wanted.count(PredicateKey(p))) return false;
    applied.insert(PredicateKey(p));
  }
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    int finest = want.group_by.HasHierarchy(h) ? want.group_by.LevelOf(h) : -1;
    for (const Predicate& p : want.predicates) {
      if (p.hierarchy != h || applied.count(PredicateKey(p))) continue;
      finest = finest < 0 ? p.level : std::min(finest, p.level);
    }
    if (finest < 0) continue;
    if (!entry.group_by.HasHierarchy(h) || entry.group_by.LevelOf(h) > finest) {
      return false;
    }
  }
  return true;
}

// Randomized differential check of the indexed lookup against a brute-force
// walk over everything resident, with the documented tie-break (fewest
// rows, then smallest fingerprint key). Row counts come from a narrow range
// so ties are common; the predicate pool is large enough that some requests
// exceed the subset-probe cap and take the node-walk path; epoch sweeps
// interleave with inserts and lookups.
TEST_F(CacheTest, IndexedSubsumptionMatchesBruteForce) {
  const std::vector<Predicate> pool = {
      {0, 0, PredicateOp::kBetween, {"1997-01-01", "1997-03-31"}},
      {0, 1, PredicateOp::kIn, {"1997-01", "1997-02"}},
      {0, 2, PredicateOp::kEquals, {"1997"}},
      {1, 0, PredicateOp::kEquals, {"Apple"}},
      {1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
      {2, 0, PredicateOp::kIn, {"S1", "S2"}},
      {2, 1, PredicateOp::kEquals, {"Italy"}},
      {2, 1, PredicateOp::kEquals, {"France"}},
  };
  const int levels[] = {3, 2, 2};
  Rng rng(20260418);
  auto random_query = [&](int max_preds) {
    CubeQuery q = RawQuery({}, {}, {});
    for (int h = 0; h < 3; ++h) {
      const int level = static_cast<int>(rng.Uniform(levels[h] + 1)) - 1;
      if (level >= 0) q.group_by.SetLevel(h, level);
    }
    const int preds = static_cast<int>(rng.Uniform(max_preds + 1));
    for (int i = 0; i < preds; ++i) {
      q.predicates.push_back(pool[rng.Uniform(pool.size())]);
    }
    const uint64_t measures = 1 + rng.Uniform(3);  // {q}, {s} or {q, s}
    if (measures & 1) q.measures.push_back(0);
    if (measures & 2) q.measures.push_back(1);
    return q;
  };

  struct Resident {
    CanonicalQuery query;
    int64_t rows;
  };
  CubeResultCache cache;  // 64 MB: nothing is evicted
  std::map<std::string, Resident> resident;
  uint64_t epoch = 0;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.Uniform(100);
    if (op < 45) {
      CanonicalQuery canon = CanonicalizeQuery(random_query(3));
      canon.epoch = epoch - rng.Uniform(std::min<uint64_t>(epoch, 2) + 1);
      const int64_t rows = 1 + static_cast<int64_t>(rng.Uniform(4));
      const std::string key = FingerprintKey(canon);
      cache.Insert(key, canon, CubeOfRows(rows));
      resident[key] = Resident{canon, rows};
    } else if (op < 97) {
      CanonicalQuery want = CanonicalizeQuery(random_query(12));
      want.epoch = epoch - rng.Uniform(std::min<uint64_t>(epoch, 1) + 1);
      const std::string* expected = nullptr;
      int64_t expected_rows = 0;
      for (const auto& [key, r] : resident) {
        if (!ReferenceAnswers(*mini_.schema, want, r.query)) continue;
        if (expected == nullptr || r.rows < expected_rows) {
          expected = &key;  // keys ascend, so the first on ties is smallest
          expected_rows = r.rows;
        }
      }
      std::shared_ptr<const CubeEntry> found =
          cache.FindSubsuming(*mini_.schema, want);
      ASSERT_EQ(found != nullptr, expected != nullptr) << "step " << step;
      if (found) {
        EXPECT_EQ(FingerprintKey(found->query), *expected) << "step " << step;
        EXPECT_EQ(found->cube.NumRows(), expected_rows);
      }
    } else {
      ++epoch;
      size_t stale = 0;
      for (auto it = resident.begin(); it != resident.end();) {
        if (it->second.query.epoch + 1 < epoch) {
          it = resident.erase(it);
          ++stale;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(cache.InvalidateEpochsBefore("SALES", epoch - 1), stale);
    }
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, resident.size());
  EXPECT_EQ(cache.IndexedEntries(), resident.size());
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.subsumption_hits, 100u);
  EXPECT_GT(stats.misses, 100u);
  EXPECT_GT(epoch, 5u);
}

// Insert, lookup, eviction and epoch sweeps racing on one small cache leave
// the lattice index and the LRU list the same size and the budget honored.
TEST_F(CacheTest, ConcurrentIndexAndLruStayInStep) {
  CacheOptions options;
  options.shards = 4;
  // Room for about 25 of the 72 distinct queries per epoch: always evicts.
  options.budget_bytes = 16 * 1024;
  CubeResultCache cache(options);
  std::atomic<uint64_t> epoch{1};
  constexpr int kThreads = 6;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      Rng rng(t + 7);
      for (int i = 0; i < 3000; ++i) {
        CubeQuery q = RawQuery({}, {}, {0});
        for (int h = 0; h < 3; ++h) {
          if (rng.Uniform(2) == 0) q.group_by.SetLevel(h, 0);
        }
        if (rng.Uniform(2) == 0) {
          const std::string country = "c" + std::to_string(rng.Uniform(8));
          q.predicates.push_back({2, 1, PredicateOp::kEquals, {country}});
        }
        CanonicalQuery canon = CanonicalizeQuery(q);
        canon.epoch = epoch.load();
        const uint64_t op = rng.Uniform(100);
        if (op < 50) {
          cache.Insert(FingerprintKey(canon), canon,
                       CubeOfRows(1 + static_cast<int64_t>(rng.Uniform(64))));
        } else if (op < 98) {
          (void)cache.FindSubsuming(*mini_.schema, canon);
        } else {
          cache.InvalidateEpochsBefore("SALES", epoch.fetch_add(1));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.epoch_invalidations, 0u);
  EXPECT_EQ(cache.IndexedEntries(), stats.entries);
  // Replacing an entry under its own key is the one uncounted removal.
  EXPECT_LE(stats.entries + stats.evictions + stats.epoch_invalidations,
            stats.insertions);
  EXPECT_LE(stats.bytes_resident, options.budget_bytes);
}

}  // namespace
}  // namespace assess
