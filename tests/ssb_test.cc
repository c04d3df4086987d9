#include "ssb/ssb_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "assess/session.h"
#include "ssb/sales_generator.h"
#include "ssb/workload.h"
#include "storage/star_query_engine.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;
using ::assess::testutil::K;

class SsbGeneratorTest : public ::testing::Test {
 protected:
  SsbGeneratorTest() {
    SsbConfig config;
    config.scale_factor = 0.005;
    db_ = std::move(BuildSsbDatabase(config)).value();
    ssb_ = *db_->Find("SSB");
  }

  std::unique_ptr<StarDatabase> db_;
  const BoundCube* ssb_ = nullptr;
};

TEST_F(SsbGeneratorTest, FactCountMatchesScaleFactor) {
  EXPECT_EQ(SsbFactCount(1.0), 6000000);
  EXPECT_EQ(SsbFactCount(0.005), 30000);
  EXPECT_EQ(ssb_->facts().NumRows(), 30000);
}

TEST_F(SsbGeneratorTest, CubesValidate) {
  EXPECT_TRUE(ssb_->Validate().ok());
  EXPECT_TRUE((*db_->Find("BUDGET"))->Validate().ok());
}

TEST_F(SsbGeneratorTest, HierarchyShapes) {
  const CubeSchema& schema = ssb_->schema();
  ASSERT_EQ(schema.hierarchy_count(), 4);
  const Hierarchy& date = schema.hierarchy(0);
  EXPECT_TRUE(date.temporal());
  EXPECT_EQ(date.LevelCardinality(*date.LevelIndex("date")), 2557);  // 1992-98
  EXPECT_EQ(date.LevelCardinality(*date.LevelIndex("month")), 84);
  EXPECT_EQ(date.LevelCardinality(*date.LevelIndex("year")), 7);

  const Hierarchy& customer = schema.hierarchy(1);
  EXPECT_EQ(customer.LevelCardinality(*customer.LevelIndex("c_city")), 250);
  EXPECT_EQ(customer.LevelCardinality(*customer.LevelIndex("c_nation")), 25);
  EXPECT_EQ(customer.LevelCardinality(*customer.LevelIndex("c_region")), 5);

  const Hierarchy& part = schema.hierarchy(2);
  EXPECT_EQ(part.LevelCardinality(*part.LevelIndex("brand")), 1000);
  EXPECT_EQ(part.LevelCardinality(*part.LevelIndex("category")), 25);
  EXPECT_EQ(part.LevelCardinality(*part.LevelIndex("mfgr")), 5);

  const Hierarchy& supplier = schema.hierarchy(3);
  EXPECT_EQ(supplier.LevelCardinality(*supplier.LevelIndex("s_region")), 5);
}

TEST_F(SsbGeneratorTest, CalendarIsReal) {
  const Hierarchy& date = ssb_->schema().hierarchy(0);
  // 1992 and 1996 are leap years within the SSB range.
  EXPECT_TRUE(date.MemberIdOf(0, "1996-02-29").ok());
  EXPECT_FALSE(date.MemberIdOf(0, "1997-02-29").ok());
  EXPECT_TRUE(date.MemberIdOf(0, "1998-12-31").ok());
  EXPECT_FALSE(date.MemberIdOf(0, "1999-01-01").ok());
  // Date members roll up to their month and year.
  MemberId d = *date.MemberIdOf(0, "1996-02-29");
  EXPECT_EQ(date.MemberName(1, date.RollUpMember(0, d, 1)), "1996-02");
  EXPECT_EQ(date.MemberName(2, date.RollUpMember(0, d, 2)), "1996");
}

TEST_F(SsbGeneratorTest, NationsFollowSsbVocabulary) {
  const Hierarchy& customer = ssb_->schema().hierarchy(1);
  int nation_level = *customer.LevelIndex("c_nation");
  int region_level = *customer.LevelIndex("c_region");
  MemberId france = *customer.MemberIdOf(nation_level, "FRANCE");
  EXPECT_EQ(customer.MemberName(
                region_level,
                customer.RollUpMember(nation_level, france, region_level)),
            "EUROPE");
  MemberId china = *customer.MemberIdOf(nation_level, "CHINA");
  EXPECT_EQ(customer.MemberName(
                region_level,
                customer.RollUpMember(nation_level, china, region_level)),
            "ASIA");
}

TEST_F(SsbGeneratorTest, DeterministicForSeed) {
  SsbConfig config;
  config.scale_factor = 0.002;
  auto a = BuildSsbDatabase(config);
  auto b = BuildSsbDatabase(config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (const char* name : {"SSB", "BUDGET"}) {
    const FactTable& fa = (*(*a)->Find(name))->facts();
    const FactTable& fb = (*(*b)->Find(name))->facts();
    ASSERT_EQ(fa.NumRows(), fb.NumRows()) << name;
    for (int d = 0; d < fa.dimension_count(); ++d) {
      EXPECT_EQ(fa.fk_column(d), fb.fk_column(d)) << name << " dim " << d;
    }
    for (int m = 0; m < fa.measure_count(); ++m) {
      EXPECT_EQ(fa.measure_column(m), fb.measure_column(m))
          << name << " measure " << m;
    }
  }
}

TEST_F(SsbGeneratorTest, FactsAreClusteredByDate) {
  // Date codes follow the calendar, so the bulk load's order by the
  // temporal hierarchy's key is a non-decreasing date column. Every row has
  // a valid date code, so the per-date row counts add up to the table.
  for (const char* name : {"SSB", "BUDGET"}) {
    const FactTable& facts = (*db_->Find(name))->facts();
    const std::vector<int32_t>& dates = facts.fk_column(0);
    EXPECT_TRUE(std::is_sorted(dates.begin(), dates.end())) << name;
    const int64_t n_dates = (*db_->Find(name))->dimension(0).NumRows();
    std::vector<int64_t> per_date(n_dates, 0);
    for (int32_t code : dates) {
      ASSERT_GE(code, 0) << name;
      ASSERT_LT(code, n_dates) << name;
      ++per_date[code];
    }
    EXPECT_EQ(std::accumulate(per_date.begin(), per_date.end(), int64_t{0}),
              facts.NumRows())
        << name;
  }
}

TEST_F(SsbGeneratorTest, BudgetSkipsEveryFifthCustomer) {
  const BoundCube* budget = *db_->Find("BUDGET");
  for (int32_t fk : budget->facts().fk_column(1)) {
    EXPECT_NE(fk % 5, 0);
  }
  EXPECT_EQ(budget->facts().measure_count(), 1);
  EXPECT_EQ(budget->schema().measure(0).name, "plannedRevenue");
}

TEST_F(SsbGeneratorTest, RejectsNonPositiveScale) {
  SsbConfig config;
  config.scale_factor = 0.0;
  EXPECT_FALSE(BuildSsbDatabase(config).ok());
}

TEST_F(SsbGeneratorTest, WorkloadStatementsAnalyzeAndCoverAllTypes) {
  AssessSession session(db_.get());
  std::vector<BenchmarkType> types;
  for (const WorkloadStatement& stmt : SsbWorkload()) {
    auto analyzed = session.Prepare(stmt.text);
    ASSERT_TRUE(analyzed.ok())
        << stmt.name << ": " << analyzed.status().ToString();
    types.push_back(analyzed->type);
  }
  EXPECT_EQ(types,
            (std::vector<BenchmarkType>{
                BenchmarkType::kConstant, BenchmarkType::kExternal,
                BenchmarkType::kSibling, BenchmarkType::kPast}));
}

TEST_F(SsbGeneratorTest, ScaleSeriesKeepsPaperRatios) {
  auto series = SsbScaleSeries(0.02);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].name, "SSB1");
  EXPECT_DOUBLE_EQ(series[1].scale_factor / series[0].scale_factor, 10.0);
  EXPECT_DOUBLE_EQ(series[2].scale_factor / series[0].scale_factor, 100.0);
}

TEST(BaseScaleFactorTest, EnvOverride) {
  unsetenv("ASSESS_SSB_BASE_SF");
  EXPECT_DOUBLE_EQ(BaseScaleFactorFromEnv(0.02), 0.02);
  setenv("ASSESS_SSB_BASE_SF", "0.5", 1);
  EXPECT_DOUBLE_EQ(BaseScaleFactorFromEnv(0.02), 0.5);
  setenv("ASSESS_SSB_BASE_SF", "bogus", 1);
  EXPECT_DOUBLE_EQ(BaseScaleFactorFromEnv(0.02), 0.02);
  setenv("ASSESS_SSB_BASE_SF", "-1", 1);
  EXPECT_DOUBLE_EQ(BaseScaleFactorFromEnv(0.02), 0.02);
  unsetenv("ASSESS_SSB_BASE_SF");
}

// --- SALES generator ----------------------------------------------------

TEST(SalesGeneratorTest, PaperVocabularyIsPresent) {
  SalesConfig config;
  config.facts = 5000;
  auto db = BuildSalesDatabase(config);
  ASSERT_TRUE(db.ok());
  const BoundCube* sales = *(*db)->Find("SALES");
  const CubeSchema& schema = sales->schema();
  const Hierarchy& product = schema.hierarchy(2);
  EXPECT_TRUE(product.MemberIdOf(0, "milk").ok());
  EXPECT_TRUE(product.MemberIdOf(0, "Apple").ok());
  EXPECT_TRUE(product.MemberIdOf(1, "Fresh Fruit").ok());
  const Hierarchy& store = schema.hierarchy(3);
  EXPECT_TRUE(store.MemberIdOf(0, "SmartMart").ok());
  EXPECT_TRUE(store.MemberIdOf(2, "Italy").ok());
  EXPECT_TRUE(store.MemberIdOf(2, "France").ok());
  EXPECT_TRUE(sales->Validate().ok());
  EXPECT_EQ(sales->facts().NumRows(), 5000);
  EXPECT_TRUE(schema.hierarchy(0).temporal());
}

TEST(SalesGeneratorTest, AllPaperExampleStatementsRun) {
  auto db = BuildSalesDatabase(SalesConfig{});
  ASSERT_TRUE(db.ok());
  AssessSession session(db->get());
  // Register 5star so the constant statement of Example 4.1 runs verbatim.
  auto stars = RangeLabeling::Make({{0.0, 0.2, true, true, "*"},
                                    {0.2, 0.4, false, true, "**"},
                                    {0.4, 0.6, false, true, "***"},
                                    {0.6, 0.8, false, true, "****"},
                                    {0.8, 1.0, false, true, "*****"}},
                                   "5star");
  ASSERT_TRUE(session.labelings()
                  ->Register(std::make_shared<RangeLabeling>(
                      std::move(*stars)))
                  .ok());
  const char* statements[] = {
      // Example 4.1, statement 1.
      "with SALES by month assess storeSales labels quartiles",
      // Example 4.1, statement 2.
      "with SALES by month assess storeSales against 1000 "
      "using minMaxNorm(difference(storeSales, 1000)) labels 5star",
      // Example 4.1, statement 3 (single-argument percOfTotal as printed).
      "with SALES for type = 'Fresh Fruit', country = 'Italy' "
      "by product, country assess quantity against country = 'France' "
      "using percOfTotal(difference(quantity, benchmark.quantity)) "
      "labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}",
      // Example 4.1, statement 4.
      "with SALES for month = '1997-07', store = 'SmartMart' "
      "by month, store assess storeSales against past 4 "
      "using ratio(storeSales, benchmark.storeSales) "
      "labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}",
      // Example 1.1 (adjusted target value for the generated data volume).
      "with SALES for year = '1997', product = 'milk' by year, product "
      "assess quantity against 10000 using ratio(quantity, 10000) "
      "labels {[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf): good}",
  };
  for (const char* text : statements) {
    auto result = session.Query(text);
    ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    EXPECT_GT(result->cube.NumRows(), 0) << text;
    EXPECT_FALSE(result->cube.labels().empty()) << text;
  }
}

}  // namespace
}  // namespace assess
