#include "storage/star_query_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "algebra/operators.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "ssb/ssb_generator.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;
using ::assess::testutil::CellMap;
using ::assess::testutil::K;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : mini_(BuildMiniSales()), engine_(mini_.db.get()) {}

  CubeQuery Query(const std::vector<std::string>& by,
                  std::vector<Predicate> preds,
                  const std::vector<std::string>& measures) {
    auto q = CubeQuery::Make(*mini_.schema, "SALES", by, std::move(preds),
                             measures);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  testutil::MiniDb mini_;
  StarQueryEngine engine_;
};

TEST_F(EngineTest, AggregatesFigure1Quantities) {
  Cube cube = *engine_.Execute(
      Query({"product", "country"},
            {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}}}, {"quantity"}));
  auto cells = CellMap(cube, "quantity");
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[K("Apple", "Italy")], 100);  // 60 + 40 across two facts
  EXPECT_EQ(cells[K("Pear", "Italy")], 90);
  EXPECT_EQ(cells[K("Lemon", "Italy")], 30);
  EXPECT_EQ(cells[K("Apple", "France")], 150);
  EXPECT_EQ(cells[K("Pear", "France")], 110);
  EXPECT_EQ(cells[K("Lemon", "France")], 20);
}

TEST_F(EngineTest, SelectionOnSlice) {
  Cube cube = *engine_.Execute(
      Query({"product", "country"},
            {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
             {2, 1, PredicateOp::kEquals, {"Italy"}}},
            {"quantity"}));
  EXPECT_EQ(cube.NumRows(), 3);
  auto cells = CellMap(cube, "quantity");
  EXPECT_EQ(cells[K("Apple", "Italy")], 100);
  EXPECT_EQ(cells.count({"Apple", "France"}), 0u);
}

TEST_F(EngineTest, FullAggregationYieldsOneCell) {
  Cube cube = *engine_.Execute(Query({}, {}, {"quantity"}));
  ASSERT_EQ(cube.NumRows(), 1);
  EXPECT_EQ(cube.level_count(), 0);
  EXPECT_EQ(cube.MeasureAt(0, 0), 100 + 90 + 30 + 150 + 110 + 20);
}

TEST_F(EngineTest, SparseCoordinatesAreAbsent) {
  // Dairy sold only as 'milk'; grouping by product under a Dairy slice must
  // not emit Apple/Pear/Lemon cells (a cube is a partial function).
  Cube cube = *engine_.Execute(
      Query({"product"}, {{1, 1, PredicateOp::kEquals, {"Dairy"}}},
            {"quantity", "sales"}));
  EXPECT_EQ(cube.NumRows(), 1);
  EXPECT_EQ(cube.CoordName(0, 0), "milk");
}

TEST_F(EngineTest, EmptySelectionYieldsEmptyCube) {
  // 1997-07-15 has only milk facts; slicing it on Fresh Fruit is empty.
  Cube cube = *engine_.Execute(
      Query({"product"},
            {{0, 0, PredicateOp::kEquals, {"1997-07-15"}},
             {1, 1, PredicateOp::kEquals, {"Fresh Fruit"}}},
            {"quantity"}));
  EXPECT_EQ(cube.NumRows(), 0);
}

TEST_F(EngineTest, MonthRollUpAggregatesDays) {
  Cube cube = *engine_.Execute(
      Query({"month"}, {{2, 0, PredicateOp::kEquals, {"SmartMart"}}},
            {"sales"}));
  auto cells = CellMap(cube, "sales");
  EXPECT_EQ(cells[K("1997-03")], 10);
  EXPECT_EQ(cells[K("1997-07")], 45);  // fruit facts carry zero sales
}

TEST_F(EngineTest, InAndBetweenPredicates) {
  Cube in_cube = *engine_.Execute(
      Query({"month"},
            {{0, 1, PredicateOp::kIn, {"1997-03", "1997-05"}}}, {"sales"}));
  EXPECT_EQ(in_cube.NumRows(), 2);
  Cube between_cube = *engine_.Execute(
      Query({"month"},
            {{0, 1, PredicateOp::kBetween, {"1997-03", "1997-05"}}},
            {"sales"}));
  EXPECT_EQ(between_cube.NumRows(), 3);
}

TEST_F(EngineTest, MultipleMeasures) {
  Cube cube = *engine_.Execute(Query({"country"}, {}, {"quantity", "sales"}));
  auto qty = CellMap(cube, "quantity");
  auto sales = CellMap(cube, "sales");
  EXPECT_EQ(qty[K("Italy")], 220);
  EXPECT_EQ(sales[K("Italy")], 10 + 20 + 30 + 40 + 45);
  EXPECT_EQ(qty[K("France")], 280);
  EXPECT_EQ(sales[K("France")], 5 + 10 + 15 + 20 + 18);
}

TEST_F(EngineTest, UnknownCubeFails) {
  CubeQuery q = Query({}, {}, {"quantity"});
  q.cube_name = "NOPE";
  EXPECT_FALSE(engine_.Execute(q).ok());
}

TEST(EngineZoneMapTest, DateRangeOnClusteredSsbSkipsMorsels) {
  // The SSB bulk load clusters facts by date, so a 45-day slice lands in at
  // most two adjacent morsels and the zone maps prove every other one empty.
  SsbConfig config;
  config.scale_factor = 0.05;
  config.include_budget = false;
  auto db = std::move(BuildSsbDatabase(config)).value();
  const BoundCube& ssb = **db->Find("SSB");
  const int64_t morsels =
      (ssb.facts().NumRows() + kMorselRows - 1) / kMorselRows;
  ASSERT_GE(morsels, 4);
  StarQueryEngine engine(db.get(), /*use_views=*/false, /*threads=*/1);
  CubeQuery q = *CubeQuery::Make(
      ssb.schema(), "SSB", {"month", "c_nation"},
      {{0, 0, PredicateOp::kBetween, {"1995-03-10", "1995-04-23"}}},
      {"revenue"});
  Cube cube = *engine.Execute(q);
  EXPECT_GT(cube.NumRows(), 0);
  ScanStats stats = engine.scan_stats();
  EXPECT_LE(stats.morsels_scanned, 2u);
  EXPECT_EQ(stats.morsels_scanned + stats.morsels_skipped,
            static_cast<uint64_t>(morsels));
}

// --- Aggregation operators beyond sum ------------------------------------

TEST(AggOpsTest, AvgMinMaxCount) {
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  schema->AddMeasure({"a", AggOp::kAvg});
  schema->AddMeasure({"lo", AggOp::kMin});
  schema->AddMeasure({"hi", AggOp::kMax});
  schema->AddMeasure({"n", AggOp::kCount});

  DimensionTable dim("k", hier);
  MemberId g1 = hier->AddMember(0, "g1");
  MemberId g2 = hier->AddMember(0, "g2");
  dim.AddRow({g1});
  dim.AddRow({g2});
  FactTable facts("T", 1, 5);
  // Group g1: values 2, 4, 9; group g2: value 5. The same value feeds all
  // five measures so each operator is checked independently.
  for (double v : {2.0, 4.0, 9.0}) facts.AddRow({0}, {v, v, v, v, v});
  facts.AddRow({1}, {5.0, 5.0, 5.0, 5.0, 5.0});

  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine engine(&db);
  CubeQuery q = *CubeQuery::Make(*schema, "T", {"k"}, {},
                                 {"s", "a", "lo", "hi", "n"});
  Cube cube = *engine.Execute(q);
  auto sum = CellMap(cube, "s");
  auto avg = CellMap(cube, "a");
  auto lo = CellMap(cube, "lo");
  auto hi = CellMap(cube, "hi");
  auto n = CellMap(cube, "n");
  EXPECT_EQ(sum[K("g1")], 15);
  EXPECT_EQ(avg[K("g1")], 5);
  EXPECT_EQ(lo[K("g1")], 2);
  EXPECT_EQ(hi[K("g1")], 9);
  EXPECT_EQ(n[K("g1")], 3);
  EXPECT_EQ(sum[K("g2")], 5);
  EXPECT_EQ(avg[K("g2")], 5);
  EXPECT_EQ(n[K("g2")], 1);
}

// --- Materialized views ---------------------------------------------------

class EngineViewTest : public EngineTest {};

TEST_F(EngineViewTest, ViewAnsweredQueriesMatchFactScan) {
  StarQueryEngine no_views(mini_.db.get(), /*use_views=*/false);
  CubeQuery q = Query({"type", "country"}, {}, {"quantity"});
  Cube expected = *no_views.Execute(q);

  ASSERT_TRUE(engine_
                  .MaterializeView(mini_.db.get(), "SALES",
                                   {"month", "product", "country"}, "mv1")
                  .ok());
  Cube from_view = *engine_.Execute(q);
  EXPECT_TRUE(engine_.last_used_view());
  EXPECT_EQ(CellMap(expected, "quantity"), CellMap(from_view, "quantity"));
}

TEST_F(EngineViewTest, ViewSkippedWhenTooCoarse) {
  ASSERT_TRUE(
      engine_.MaterializeView(mini_.db.get(), "SALES", {"year"}, "mv_year")
          .ok());
  Cube cube = *engine_.Execute(Query({"product"}, {}, {"quantity"}));
  EXPECT_FALSE(engine_.last_used_view());
  EXPECT_EQ(cube.NumRows(), 4);
}

TEST_F(EngineViewTest, ViewHonorsPredicatesAtItsGranularity) {
  StarQueryEngine no_views(mini_.db.get(), /*use_views=*/false);
  ASSERT_TRUE(engine_
                  .MaterializeView(mini_.db.get(), "SALES",
                                   {"month", "product", "store"}, "mv2")
                  .ok());
  CubeQuery q = Query({"month"},
                      {{2, 1, PredicateOp::kEquals, {"Italy"}},
                       {1, 1, PredicateOp::kEquals, {"Dairy"}}},
                      {"sales"});
  Cube expected = *no_views.Execute(q);
  Cube actual = *engine_.Execute(q);
  EXPECT_TRUE(engine_.last_used_view());
  EXPECT_EQ(CellMap(expected, "sales"), CellMap(actual, "sales"));
}

TEST_F(EngineViewTest, DisabledViewsAreNotConsulted) {
  ASSERT_TRUE(engine_
                  .MaterializeView(mini_.db.get(), "SALES",
                                   {"product", "country"}, "mv3")
                  .ok());
  StarQueryEngine no_views(mini_.db.get(), /*use_views=*/false);
  Cube cube = *no_views.Execute(Query({"country"}, {}, {"quantity"}));
  EXPECT_FALSE(no_views.last_used_view());
  EXPECT_EQ(cube.NumRows(), 2);
}

TEST_F(EngineViewTest, CacheAnswersBeforeViews) {
  ASSERT_TRUE(engine_
                  .MaterializeView(mini_.db.get(), "SALES",
                                   {"product", "country"}, "mv_pc")
                  .ok());
  EngineOptions options;
  options.threads = 1;
  StarQueryEngine cached(mini_.db.get(), options);
  StarQueryEngine no_views(mini_.db.get(), /*use_views=*/false);

  // Nothing cached yet: the miss falls through to the view.
  CubeQuery mid = Query({"type", "country"}, {}, {"quantity"});
  Cube from_view = *cached.Execute(mid);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kMiss);
  EXPECT_TRUE(cached.last_used_view());
  EXPECT_EQ(CellMap(*no_views.Execute(mid), "quantity"),
            CellMap(from_view, "quantity"));

  // Both the cached {type, country} entry and the view answer {country}:
  // the cache is searched first.
  CubeQuery coarse = Query({"country"}, {}, {"quantity"});
  Cube from_cache = *cached.Execute(coarse);
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kSubsumptionHit);
  EXPECT_FALSE(cached.last_used_view());
  EXPECT_EQ(CellMap(*no_views.Execute(coarse), "quantity"),
            CellMap(from_cache, "quantity"));
}

TEST_F(EngineViewTest, LaggingViewsAreNotUsed) {
  ASSERT_TRUE(engine_
                  .MaterializeView(mini_.db.get(), "SALES",
                                   {"product", "country"}, "mv_pc")
                  .ok());
  StarQueryEngine no_views(mini_.db.get(), /*use_views=*/false);
  CubeQuery q = Query({"country"}, {}, {"quantity"});
  auto before = CellMap(*no_views.Execute(q), "quantity");

  // Append a fact (first date, Apple, SmartMart in Italy) behind the views'
  // back: they still aggregate the previous epoch.
  BoundCube* bound = *mini_.db->FindMutable("SALES");
  bound->mutable_facts().AppendBatch({{0}, {0}, {0}}, {{5}, {7}});

  Cube cube = *engine_.Execute(q);
  EXPECT_FALSE(engine_.last_used_view());
  auto after = CellMap(cube, "quantity");
  EXPECT_EQ(after, CellMap(*no_views.Execute(q), "quantity"));
  EXPECT_EQ(after[K("Italy")], before[K("Italy")] + 5);
  EXPECT_EQ(after[K("France")], before[K("France")]);
}

TEST_F(EngineViewTest, CacheLookupFailpointFallsThroughToViews) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  ASSERT_TRUE(engine_
                  .MaterializeView(mini_.db.get(), "SALES",
                                   {"product", "country"}, "mv_pc")
                  .ok());
  EngineOptions options;
  options.threads = 1;
  StarQueryEngine cached(mini_.db.get(), options);
  CubeQuery q = Query({"type", "country"}, {}, {"quantity"});
  (void)*cached.Execute(q);  // cached now: an exact hit without the failpoint

  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromString("cache.lookup=error").ok());
  Cube cube = *cached.Execute(q);
  registry.DisarmAll();
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kMiss);
  EXPECT_TRUE(cached.last_used_view());
  StarQueryEngine no_views(mini_.db.get(), /*use_views=*/false);
  EXPECT_EQ(CellMap(*no_views.Execute(q), "quantity"),
            CellMap(cube, "quantity"));
}

// --- Push-down entry points -----------------------------------------------

TEST_F(EngineTest, ExecuteJoinedMatchesClientJoin) {
  CubeQuery target = Query({"product", "country"},
                           {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
                            {2, 1, PredicateOp::kEquals, {"Italy"}}},
                           {"quantity"});
  CubeQuery benchmark = Query({"product", "country"},
                              {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
                               {2, 1, PredicateOp::kEquals, {"France"}}},
                              {"quantity"});
  benchmark.alias = "benchmark";

  Cube joined = *engine_.ExecuteJoined(target, benchmark, {"product"}, false);
  Cube c = *engine_.Execute(target);
  Cube b = *engine_.Execute(benchmark);
  Cube expected = *JoinCubes(c, b, {"product"}, "benchmark", false);
  EXPECT_EQ(CellMap(joined, "benchmark.quantity"),
            CellMap(expected, "benchmark.quantity"));
  EXPECT_EQ(joined.NumRows(), 3);
}

TEST_F(EngineTest, ExecutePivotedMatchesClientPivot) {
  CubeQuery all = Query({"product", "country"},
                        {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
                         {2, 1, PredicateOp::kIn, {"Italy", "France"}}},
                        {"quantity"});
  PivotSpec spec;
  spec.level = "country";
  spec.reference_member = "Italy";
  spec.other_members = {"France"};
  spec.measure_names = {{"benchmark.quantity"}};
  Cube pivoted = *engine_.ExecutePivoted(all, spec);
  auto cells = CellMap(pivoted, "benchmark.quantity");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[K("Apple", "Italy")], 150);
  EXPECT_EQ(cells[K("Lemon", "Italy")], 20);
}

// --- Randomized equivalence against a naive reference ---------------------

struct RandomWorkload {
  uint64_t seed;
};

class EngineRandomTest : public ::testing::TestWithParam<RandomWorkload> {};

// Brute-force reference: aggregate by scanning facts and rolling members up
// through the hierarchy, with per-row predicate evaluation.
std::map<std::vector<std::string>, double> NaiveAggregate(
    const BoundCube& bound, const CubeQuery& q) {
  const CubeSchema& schema = bound.schema();
  std::map<std::vector<std::string>, double> out;
  for (int64_t r = 0; r < bound.facts().NumRows(); ++r) {
    bool pass = true;
    for (const Predicate& p : q.predicates) {
      const DimensionTable& dim = bound.dimension(p.hierarchy);
      int32_t fk = bound.facts().fk_column(p.hierarchy)[r];
      const std::string& member =
          dim.hierarchy().MemberName(p.level, dim.CodeAt(fk, p.level));
      bool ok = false;
      if (p.op == PredicateOp::kEquals || p.op == PredicateOp::kIn) {
        for (const std::string& m : p.members) ok = ok || m == member;
      } else {
        ok = member >= p.members[0] && member <= p.members[1];
      }
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    std::vector<std::string> coord;
    for (int h = 0; h < schema.hierarchy_count(); ++h) {
      if (!q.group_by.HasHierarchy(h)) continue;
      const DimensionTable& dim = bound.dimension(h);
      int32_t fk = bound.facts().fk_column(h)[r];
      int level = q.group_by.LevelOf(h);
      coord.push_back(
          dim.hierarchy().MemberName(level, dim.CodeAt(fk, level)));
    }
    out[coord] += bound.facts().measure_column(q.measures[0])[r];
  }
  return out;
}

TEST_P(EngineRandomTest, MatchesNaiveReference) {
  testutil::MiniDb mini = BuildMiniSales();
  // Extend the database with random facts so coverage goes beyond the
  // hand-laid ones: rebuild with 500 extra random rows.
  const BoundCube* bound = *mini.db->Find("SALES");
  Rng rng(GetParam().seed);

  FactTable facts("SALES", 3, 2);
  for (int64_t r = 0; r < bound->facts().NumRows(); ++r) {
    facts.AddRow({bound->facts().fk_column(0)[r],
                  bound->facts().fk_column(1)[r],
                  bound->facts().fk_column(2)[r]},
                 {bound->facts().measure_column(0)[r],
                  bound->facts().measure_column(1)[r]});
  }
  for (int i = 0; i < 500; ++i) {
    facts.AddRow({static_cast<int32_t>(rng.Uniform(7)),
                  static_cast<int32_t>(rng.Uniform(4)),
                  static_cast<int32_t>(rng.Uniform(2))},
                 {static_cast<double>(rng.Uniform(100)),
                  static_cast<double>(rng.Uniform(50))});
  }
  std::vector<DimensionTable> dims = {bound->dimension(0),
                                      bound->dimension(1),
                                      bound->dimension(2)};
  StarDatabase db;
  auto schema = mini.schema;
  ASSERT_TRUE(db.Register("SALES", std::make_unique<BoundCube>(
                                       schema, std::move(dims),
                                       std::move(facts)))
                  .ok());
  const BoundCube* rebuilt = *db.Find("SALES");
  StarQueryEngine engine(&db);

  // A spread of group-by sets and predicates.
  const std::vector<std::vector<std::string>> group_bys = {
      {"product", "country"}, {"month"}, {"date", "store"},
      {"type", "country"},    {},        {"year", "type", "store"}};
  const std::vector<std::vector<Predicate>> predicate_sets = {
      {},
      {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}}},
      {{2, 1, PredicateOp::kEquals, {"Italy"}},
       {0, 1, PredicateOp::kBetween, {"1997-04", "1997-07"}}},
      {{0, 2, PredicateOp::kEquals, {"1997"}},
       {1, 0, PredicateOp::kIn, {"Apple", "milk"}}},
  };
  for (const auto& by : group_bys) {
    for (const auto& preds : predicate_sets) {
      auto q = CubeQuery::Make(*schema, "SALES", by, preds, {"quantity"});
      ASSERT_TRUE(q.ok());
      Result<Cube> cube = engine.Execute(*q);
      ASSERT_TRUE(cube.ok()) << cube.status().ToString();
      auto expected = NaiveAggregate(*rebuilt, *q);
      auto actual = CellMap(*cube, "quantity");
      EXPECT_EQ(actual, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomTest,
                         ::testing::Values(RandomWorkload{1},
                                           RandomWorkload{2},
                                           RandomWorkload{3},
                                           RandomWorkload{17},
                                           RandomWorkload{99}));

}  // namespace
}  // namespace assess
