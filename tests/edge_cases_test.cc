// Deeper edge coverage across the stack: statement robustness (fuzzed
// inputs must fail cleanly, never crash), boundary conditions in the
// engine, past benchmarks across year boundaries, assess* null handling in
// every plan, and rendering of null cells.

#include <gtest/gtest.h>

#include <cmath>

#include "assess/parser.h"
#include "assess/session.h"
#include "common/rng.h"
#include "labeling/distribution_labeling.h"
#include "labeling/kmeans_labeling.h"
#include "ssb/sales_generator.h"
#include "storage/star_query_engine.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;
using ::assess::testutil::CellMap;
using ::assess::testutil::K;
using ::assess::testutil::LabelMap;

// --- Parser robustness --------------------------------------------------

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, MutatedStatementsNeverCrash) {
  const std::string base =
      "with SALES for type = 'Fresh Fruit', country = 'Italy' "
      "by product, country assess quantity against country = 'France' "
      "using percOfTotal(difference(quantity, benchmark.quantity), quantity) "
      "labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}";
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:  // delete a span
          mutated.erase(pos, 1 + rng.Uniform(5));
          break;
        case 1:  // insert punctuation/noise
          mutated.insert(pos, 1, "(){}[],:=*.'x0 "[rng.Uniform(15)]);
          break;
        case 2:  // overwrite a char
          if (!mutated.empty()) {
            mutated[pos % mutated.size()] =
                static_cast<char>(32 + rng.Uniform(95));
          }
          break;
      }
    }
    // Must return ok or a clean error; any crash fails the test harness.
    Result<AssessStatement> result = ParseAssessStatement(mutated);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(ParserFuzzTest, MutatedStatementsAnalyzeCleanly) {
  // Statements that parse must analyze without crashing, too.
  testutil::MiniDb mini = BuildMiniSales();
  FunctionRegistry functions = FunctionRegistry::Default();
  LabelingRegistry labelings = LabelingRegistry::Default();
  const std::string base =
      "with SALES for month = '1997-07' by month, store "
      "assess sales against past 4 labels quartiles";
  Rng rng(99);
  int analyzed_ok = 0;
  for (int round = 0; round < 300; ++round) {
    std::string mutated = base;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
    auto stmt = ParseAssessStatement(mutated);
    if (!stmt.ok()) continue;
    auto analyzed = Analyze(*stmt, *mini.db, functions, labelings);
    if (analyzed.ok()) ++analyzed_ok;
  }
  // The unmutated form is among the survivors in expectation; just require
  // no crash and at least some mutated statements being rejected cleanly.
  EXPECT_LT(analyzed_ok, 300);
}

// --- Engine boundaries ----------------------------------------------------

class EdgeCaseTest : public ::testing::Test {
 protected:
  EdgeCaseTest() : mini_(BuildMiniSales()), session_(mini_.db.get()) {}
  testutil::MiniDb mini_;
  AssessSession session_;
};

TEST_F(EdgeCaseTest, PredicateFinerThanGroupLevel) {
  // Group by month while slicing a single date: predicates finer than the
  // group-by level must apply before aggregation.
  StarQueryEngine engine(mini_.db.get());
  auto q = CubeQuery::Make(*mini_.schema, "SALES", {"month"},
                           {{0, 0, PredicateOp::kEquals, {"1997-07-01"}}},
                           {"quantity"});
  ASSERT_TRUE(q.ok());
  Cube cube = *engine.Execute(*q);
  auto cells = CellMap(cube, "quantity");
  ASSERT_EQ(cells.size(), 1u);
  // 1997-07-01 facts: Apple 60 + Pear 90 + Lemon 30 + Apple(FR) 150 +
  // Lemon(FR) 20 = 350.
  EXPECT_EQ(cells[K("1997-07")], 350);
}

TEST_F(EdgeCaseTest, DuplicatePredicatesIntersect) {
  StarQueryEngine engine(mini_.db.get());
  auto q = CubeQuery::Make(*mini_.schema, "SALES", {"product"},
                           {{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
                            {1, 0, PredicateOp::kIn, {"Apple", "milk"}}},
                           {"quantity"});
  ASSERT_TRUE(q.ok());
  Cube cube = *engine.Execute(*q);
  EXPECT_EQ(cube.NumRows(), 1);  // only Apple survives both
}

TEST_F(EdgeCaseTest, ContradictoryPredicatesYieldEmptyResult) {
  auto result = session_.Query(
      "with SALES for country = 'Italy', store = 'PetitPrix' "
      "by product assess quantity labels quartiles");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cube.NumRows(), 0);
}

TEST(EngineLimitTest, DeltaRangeRejectsGroupBysBeyondSixteenLevels) {
  // 17 single-member hierarchies, all grouped: the key space (2^17 + 1)
  // exceeds max(4096, rows), so the generic hash kernel would run, and its
  // per-row member buffer holds 16 levels. Every scan entry point,
  // including the delta-merge primitive, must refuse the shape instead.
  constexpr int kHierarchies = 17;
  auto schema = std::make_shared<CubeSchema>("WIDE");
  std::vector<DimensionTable> dims;
  std::vector<std::string> levels;
  for (int h = 0; h < kHierarchies; ++h) {
    const std::string level = "l" + std::to_string(h);
    auto hier = std::make_shared<Hierarchy>("H" + std::to_string(h));
    hier->AddLevel(level);
    DimensionTable dim(level, hier);
    dim.AddRow({hier->AddMember(0, "only")});
    schema->AddHierarchy(hier);
    dims.push_back(std::move(dim));
    levels.push_back(level);
  }
  schema->AddMeasure({"m", AggOp::kSum});
  FactTable facts("WIDE", kHierarchies, 1);
  for (int r = 0; r < 10; ++r) {
    facts.AddRow(std::vector<int32_t>(kHierarchies, 0), {1.0});
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("WIDE", std::make_unique<BoundCube>(
                                      schema, std::move(dims),
                                      std::move(facts)))
                  .ok());
  const BoundCube& bound = **db.Find("WIDE");
  auto group_by = GroupBySet::FromLevelNames(*schema, levels);
  ASSERT_TRUE(group_by.ok()) << group_by.status().ToString();
  ASSERT_EQ(group_by->Arity(), kHierarchies);

  StarQueryEngine engine(&db, /*use_views=*/false, /*threads=*/1);
  auto delta = engine.AggregateFactRange(bound, *group_by, 0, 10);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kNotSupported);

  auto query = CubeQuery::Make(*schema, "WIDE", levels, {}, {"m"});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto solo = engine.Execute(*query);
  ASSERT_FALSE(solo.ok());
  EXPECT_EQ(solo.status().code(), StatusCode::kNotSupported);
}

// --- Past benchmarks across boundaries ------------------------------------

TEST(PastBoundaryTest, WindowsCrossYearBoundaries) {
  SalesConfig config;
  config.facts = 50000;
  auto db = std::move(BuildSalesDatabase(config)).value();
  AssessSession session(db.get());
  // February 1997 against the previous four months: 1996-10..1997-01.
  auto analyzed = session.Prepare(
      "with SALES for month = '1997-02' by month, store "
      "assess storeSales against past 4 labels quartiles");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->past_members,
            (std::vector<std::string>{"1996-10", "1996-11", "1996-12",
                                      "1997-01"}));
  for (PlanKind plan : FeasiblePlans(*analyzed)) {
    auto result = session.Query(analyzed->stmt.original_text, plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->cube.NumRows(), 0);
  }
}

// --- assess* null handling per plan ----------------------------------------

TEST_F(EdgeCaseTest, StarSiblingKeepsUnmatchedAcrossPlans) {
  // Add a product sold only in Italy so the France benchmark misses it.
  // The fixture has none, so slice by date instead: 1997-07-02 has Apple
  // (Italy) and Pear (France) only.
  const char* star =
      "with SALES for date = '1997-07-02', country = 'Italy' "
      "by product, country, date assess* quantity "
      "against country = 'France' "
      "using difference(quantity, benchmark.quantity) "
      "labels {[-inf, inf]: matched}";
  auto np = session_.Query(star, PlanKind::kNP);
  ASSERT_TRUE(np.ok()) << np.status().ToString();
  ASSERT_EQ(np->cube.NumRows(), 1);  // Apple Italy, no France match
  // Axes follow schema hierarchy order: date, product, country.
  auto np_labels = LabelMap(np->cube);
  EXPECT_EQ(np_labels.at(K("1997-07-02", "Apple", "Italy")), "");
  auto jop = session_.Query(star, PlanKind::kJOP);
  auto pop = session_.Query(star, PlanKind::kPOP);
  ASSERT_TRUE(jop.ok() && pop.ok());
  EXPECT_EQ(LabelMap(jop->cube), np_labels);
  EXPECT_EQ(LabelMap(pop->cube), np_labels);
  // The null benchmark shows as "null" in rendering and empty in CSV.
  EXPECT_NE(np->ToString().find("null"), std::string::npos);
}

TEST_F(EdgeCaseTest, StarPastWithNoHistory) {
  // 1997-03 is the earliest month in the fixture: past 1 fails analysis
  // (no predecessors exist at all).
  auto none = session_.Prepare(
      "with SALES for month = '1997-03' by month, store "
      "assess* sales against past 1 labels quartiles");
  EXPECT_FALSE(none.ok());
  // 1997-04 has exactly one predecessor.
  auto one = session_.Query(
      "with SALES for month = '1997-04' by month, store "
      "assess* sales against past 1 using ratio(sales, benchmark.sales) "
      "labels {[-inf, inf]: any}");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->cube.NumRows(), 2);
}

// --- Quantile and k-means boundaries ---------------------------------------

TEST(LabelingEdgeTest, QuantilesWithFewerValuesThanGroups) {
  auto fn = *QuantileLabeling::Make(4);
  std::vector<double> values = {1.0, 2.0};
  std::vector<std::string> labels;
  ASSERT_TRUE(fn.Apply(std::span<const double>(values), &labels).ok());
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_NE(labels[0], "");
}

TEST(LabelingEdgeTest, KMeansIsDeterministic) {
  auto fn = *KMeansLabeling::Make(3);
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextDouble() * 10);
  std::vector<std::string> first;
  std::vector<std::string> second;
  ASSERT_TRUE(fn.Apply(std::span<const double>(values), &first).ok());
  ASSERT_TRUE(fn.Apply(std::span<const double>(values), &second).ok());
  EXPECT_EQ(first, second);
}

// --- Multi-measure concat join ----------------------------------------------

TEST_F(EdgeCaseTest, ConcatJoinCarriesMultipleMeasuresPerSlot) {
  StarQueryEngine engine(mini_.db.get());
  auto target = CubeQuery::Make(*mini_.schema, "SALES", {"month", "store"},
                                {{0, 1, PredicateOp::kEquals, {"1997-07"}}},
                                {"quantity", "sales"});
  auto history = CubeQuery::Make(*mini_.schema, "SALES", {"month", "store"},
                                 {{0, 1, PredicateOp::kIn,
                                   {"1997-05", "1997-06"}}},
                                 {"quantity", "sales"});
  ASSERT_TRUE(target.ok() && history.ok());
  Cube joined = *engine.ExecuteConcatJoined(
      *target, *history, {"store"}, "month", 2,
      {{"q1", "s1"}, {"q2", "s2"}}, true);
  ASSERT_EQ(joined.NumRows(), 2);  // SmartMart + PetitPrix
  auto s1 = CellMap(joined, "s1");
  auto s2 = CellMap(joined, "s2");
  EXPECT_EQ(s1[K("1997-07", "SmartMart")], 30);  // May
  EXPECT_EQ(s2[K("1997-07", "SmartMart")], 40);  // June
}

// --- Statement-level rendering ----------------------------------------------

TEST_F(EdgeCaseTest, ExplainCoversEveryFeasiblePlanOfEveryType) {
  const char* statements[] = {
      "with SALES by month assess sales against 10 labels quartiles",
      "with SALES for country = 'Italy' by product, country assess quantity "
      "against country = 'France' labels quartiles",
      "with SALES for month = '1997-07' by month, store assess sales "
      "against past 2 labels quartiles",
      "with SALES for product = 'Apple' by product assess quantity "
      "against type labels quartiles",
  };
  for (const char* text : statements) {
    auto analyzed = session_.Prepare(text);
    ASSERT_TRUE(analyzed.ok()) << text;
    for (PlanKind plan : FeasiblePlans(*analyzed)) {
      std::string explained = ExplainPlan(*analyzed, plan);
      EXPECT_NE(explained.find("compare:"), std::string::npos) << text;
      EXPECT_NE(explained.find("label:"), std::string::npos) << text;
      EXPECT_NE(explained.find(PlanKindToString(plan)), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace assess
