#include <gtest/gtest.h>

#include "cache/cube_cache.h"
#include "cache/query_fingerprint.h"
#include "common/task_pool.h"
#include "ssb/sales_generator.h"
#include "storage/predicate.h"
#include "storage/star_query_engine.h"
#include "storage/star_schema.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : mini_(BuildMiniSales()) {
    bound_ = *mini_.db->Find("SALES");
  }
  const CubeSchema& schema() const { return *mini_.schema; }
  const Hierarchy& product_hier() const { return schema().hierarchy(1); }
  const Hierarchy& date_hier() const { return schema().hierarchy(0); }

  testutil::MiniDb mini_;
  const BoundCube* bound_ = nullptr;
};

TEST_F(StorageTest, DimensionTableShape) {
  const DimensionTable& products = bound_->dimension(1);
  EXPECT_EQ(products.NumRows(), 4);
  EXPECT_EQ(products.hierarchy().name(), "Product");
  // Row 0 is Apple -> Fresh Fruit.
  EXPECT_EQ(products.hierarchy().MemberName(0, products.CodeAt(0, 0)),
            "Apple");
  EXPECT_EQ(products.hierarchy().MemberName(1, products.CodeAt(0, 1)),
            "Fresh Fruit");
}

TEST_F(StorageTest, DimensionValidateCatchesInconsistentRow) {
  auto h = std::make_shared<Hierarchy>("H");
  h->AddLevel("a");
  h->AddLevel("b");
  MemberId b1 = h->AddMember(1, "b1");
  MemberId b2 = h->AddMember(1, "b2");
  MemberId a1 = h->AddMember(0, "a1");
  h->SetParent(0, a1, b1);
  DimensionTable dim("d", h);
  dim.AddRow({a1, b2});  // disagrees with the part-of mapping (a1 >= b1)
  EXPECT_FALSE(dim.Validate().ok());
}

TEST_F(StorageTest, FactTableShape) {
  const FactTable& facts = bound_->facts();
  EXPECT_EQ(facts.NumRows(), 17);
  EXPECT_EQ(facts.dimension_count(), 3);
  EXPECT_EQ(facts.measure_count(), 2);
}

TEST_F(StorageTest, BoundCubeValidates) {
  EXPECT_TRUE(bound_->Validate().ok());
}

TEST_F(StorageTest, BoundCubeValidateCatchesDanglingForeignKey) {
  testutil::MiniDb broken = BuildMiniSales();
  BoundCube* cube = *broken.db->FindMutable("SALES");
  // Rebuild the bound cube with one fact pointing beyond the dimension.
  FactTable facts("SALES", 3, 2);
  facts.AddRow({0, 99, 0}, {1, 1});
  std::vector<DimensionTable> dims;
  for (int h = 0; h < broken.schema->hierarchy_count(); ++h) {
    dims.push_back(cube->dimension(h));
  }
  BoundCube bad(broken.schema, std::move(dims), std::move(facts));
  Status st = bad.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dangling"), std::string::npos);
}

TEST_F(StorageTest, DatabaseRegistryAndLookup) {
  EXPECT_TRUE(mini_.db->Contains("SALES"));
  EXPECT_FALSE(mini_.db->Contains("SSB"));
  EXPECT_TRUE(mini_.db->Find("SALES").ok());
  EXPECT_FALSE(mini_.db->Find("SSB").ok());
  EXPECT_EQ(mini_.db->CubeNames(), std::vector<std::string>{"SALES"});
}

TEST_F(StorageTest, DuplicateRegistrationFails) {
  Status st = mini_.db->Register(
      "SALES", std::make_unique<BoundCube>(mini_.schema,
                                           std::vector<DimensionTable>{},
                                           FactTable("x", 0, 0)));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST_F(StorageTest, DomainFlagsEquals) {
  Predicate p{1, 1, PredicateOp::kEquals, {"Fresh Fruit"}};
  auto flags = BuildDomainFlags(product_hier(), p);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags, (std::vector<uint8_t>{1, 0}));  // Fresh Fruit, Dairy
}

TEST_F(StorageTest, DomainFlagsIn) {
  Predicate p{1, 0, PredicateOp::kIn, {"Apple", "Lemon"}};
  auto flags = BuildDomainFlags(product_hier(), p);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags, (std::vector<uint8_t>{1, 0, 1, 0}));
}

TEST_F(StorageTest, DomainFlagsBetween) {
  Predicate p{0, 1, PredicateOp::kBetween, {"1997-04", "1997-06"}};
  auto flags = BuildDomainFlags(date_hier(), p);
  ASSERT_TRUE(flags.ok());
  int matched = 0;
  for (MemberId m = 0; m < date_hier().LevelCardinality(1); ++m) {
    if ((*flags)[m]) {
      ++matched;
      EXPECT_GE(date_hier().MemberName(1, m), "1997-04");
      EXPECT_LE(date_hier().MemberName(1, m), "1997-06");
    }
  }
  EXPECT_EQ(matched, 3);
}

TEST_F(StorageTest, DomainFlagsUnknownMemberFails) {
  Predicate p{1, 0, PredicateOp::kEquals, {"Durian"}};
  EXPECT_FALSE(BuildDomainFlags(product_hier(), p).ok());
}

TEST_F(StorageTest, DomainFlagsBetweenNeedsTwoBounds) {
  Predicate p{0, 1, PredicateOp::kBetween, {"1997-04"}};
  EXPECT_FALSE(BuildDomainFlags(date_hier(), p).ok());
}

TEST_F(StorageTest, ConjunctionFlagsRollUpPredicates) {
  // Evaluate at product level a predicate on type.
  std::vector<Predicate> preds = {
      {1, 1, PredicateOp::kEquals, {"Fresh Fruit"}}};
  auto flags = BuildConjunctionFlags(product_hier(), preds, 0);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags, (std::vector<uint8_t>{1, 1, 1, 0}));  // milk fails
}

TEST_F(StorageTest, ConjunctionFlagsIntersect) {
  std::vector<Predicate> preds = {
      {1, 1, PredicateOp::kEquals, {"Fresh Fruit"}},
      {1, 0, PredicateOp::kIn, {"Apple", "milk"}}};
  auto flags = BuildConjunctionFlags(product_hier(), preds, 0);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags, (std::vector<uint8_t>{1, 0, 0, 0}));  // only Apple
}

TEST_F(StorageTest, ConjunctionFlagsRejectFinerPredicate) {
  // Predicate on product cannot be evaluated at type granularity.
  std::vector<Predicate> preds = {{1, 0, PredicateOp::kEquals, {"Apple"}}};
  EXPECT_FALSE(BuildConjunctionFlags(product_hier(), preds, 1).ok());
}

TEST_F(StorageTest, DimensionRowFlags) {
  std::vector<Predicate> preds = {
      {2, 1, PredicateOp::kEquals, {"Italy"}}};
  auto flags = BuildDimensionRowFlags(bound_->dimension(2), preds);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags, (std::vector<uint8_t>{1, 0}));  // SmartMart yes, PetitPrix no
}

TEST_F(StorageTest, EmptyPredicatesPassEverything) {
  auto flags = BuildDimensionRowFlags(bound_->dimension(2), {});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags, (std::vector<uint8_t>{1, 1}));
}

// The generated SALES cube: its dimensions are large enough for the row
// flags and scan set-up counts below to mean something.
class SalesStorageTest : public ::testing::Test {
 protected:
  // Dimension sizes, derived from the generator: the days of 1996 (a leap
  // year) and 1997, 200 customers, 18 products, 11 stores.
  static constexpr int64_t kDates = 366 + 365;
  static constexpr int64_t kCustomers = 200;
  static constexpr int64_t kProducts = 18;
  static constexpr int64_t kStores = 11;

  SalesStorageTest() {
    SalesConfig config;
    config.facts = 5000;
    config.seed = 3;
    auto db = BuildSalesDatabase(config);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    sales_ = *db_->Find("SALES");
  }

  CubeQuery Query(const std::vector<std::string>& by,
                  const std::vector<Predicate>& predicates,
                  const std::vector<std::string>& measures) const {
    auto q = CubeQuery::Make(sales_->schema(), "SALES", by, predicates,
                             measures);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(*q);
  }

  std::unique_ptr<StarDatabase> db_;
  const BoundCube* sales_ = nullptr;
};

TEST_F(SalesStorageTest, DimensionRowFlagsMatchNaiveEvaluation) {
  // Two predicates on the Date hierarchy, at two levels: the flags are
  // their conjunction per dimension row, checked against member names.
  const DimensionTable& dates = sales_->dimension(0);
  ASSERT_EQ(dates.NumRows(), kDates);
  const Hierarchy& h = dates.hierarchy();
  std::vector<Predicate> preds = {
      {0, 1, PredicateOp::kBetween, {"1996-11", "1997-04"}},
      {0, 2, PredicateOp::kEquals, {"1997"}}};
  auto flags = BuildDimensionRowFlags(dates, preds);
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  ASSERT_EQ(static_cast<int64_t>(flags->size()), kDates);
  int64_t passed = 0;
  for (int64_t r = 0; r < kDates; ++r) {
    const std::string& month = h.MemberName(1, dates.CodeAt(r, 1));
    const std::string& year = h.MemberName(2, dates.CodeAt(r, 2));
    const bool expected =
        month >= "1996-11" && month <= "1997-04" && year == "1997";
    EXPECT_EQ((*flags)[r], expected ? 1 : 0) << "row " << r;
    passed += (*flags)[r];
  }
  // January to April 1997.
  EXPECT_EQ(passed, 31 + 28 + 31 + 30);
}

TEST_F(SalesStorageTest, SharedScanFlagsOnceAndSharesEqualLanes) {
  ASSERT_EQ(sales_->dimension(1).NumRows(), kCustomers);
  ASSERT_EQ(sales_->dimension(2).NumRows(), kProducts);
  ASSERT_EQ(sales_->dimension(3).NumRows(), kStores);
  // Predicates on Date and Store; two consumers group by type (equal
  // lanes), one by gender.
  std::vector<Predicate> preds = {
      {0, 2, PredicateOp::kEquals, {"1997"}},
      {3, 2, PredicateOp::kIn, {"Italy", "France"}}};
  const std::vector<CubeQuery> batch = {
      Query({"type"}, preds, {"storeSales"}),
      Query({"type"}, preds, {"quantity"}),
      Query({"gender"}, preds, {"storeSales"}),
  };
  auto pool = std::make_shared<TaskPool>(1);
  EngineOptions options;
  options.use_views = false;
  options.use_result_cache = false;
  options.threads = 1;
  options.pool = pool;

  // Alone, each get flags both predicated dimensions and builds a lane for
  // each of them and for its grouped one.
  StarQueryEngine solo(db_.get(), options);
  for (const CubeQuery& query : batch) {
    ASSERT_TRUE(solo.Execute(query).ok());
  }
  const uint64_t solo_entries =
      3 * (2 * kDates + 2 * kStores) + 2 * kProducts + kCustomers;
  EXPECT_EQ(solo.scan_stats().setup_entries, solo_entries);

  // Batched, the conjunction is flagged once, the Date and Store lanes are
  // built once for all three consumers, and the two type consumers share
  // one Product lane.
  StarQueryEngine shared(db_.get(), options);
  auto cubes = shared.ExecuteSharedScan(batch, 0);
  ASSERT_TRUE(cubes.ok()) << cubes.status().ToString();
  const uint64_t shared_entries =
      (kDates + kStores) + (kDates + kStores + kProducts + kCustomers);
  EXPECT_EQ(shared.scan_stats().setup_entries, shared_entries);
  // The pool sums every engine's scans: this is what assessd exports as
  // assess_scan_setup_entries_total.
  EXPECT_EQ(pool->stats().setup_entries, solo_entries + shared_entries);
}

// A materialized view is a CubeEntry with no predicates and every measure.
CubeEntry View(const CubeSchema& schema,
               const std::vector<std::string>& levels) {
  CubeEntry view;
  view.query.group_by = *GroupBySet::FromLevelNames(schema, levels);
  for (int m = 0; m < schema.measure_count(); ++m) {
    view.query.measures.push_back(m);
  }
  return view;
}

class MaterializedViewTest : public StorageTest {};

TEST_F(MaterializedViewTest, ViewAnswersCoarserQuery) {
  CubeEntry view = View(schema(), {"product", "country"});
  CubeQuery query;
  query.group_by = *GroupBySet::FromLevelNames(schema(), {"type"});
  query.measures = {0};
  EXPECT_TRUE(
      EntryAnswersQuery(schema(), CanonicalizeQuery(query), view.query));
}

TEST_F(MaterializedViewTest, ViewRejectsFinerQuery) {
  CubeEntry view = View(schema(), {"type"});
  CubeQuery query;
  query.group_by = *GroupBySet::FromLevelNames(schema(), {"product"});
  query.measures = {0};
  EXPECT_FALSE(
      EntryAnswersQuery(schema(), CanonicalizeQuery(query), view.query));
}

TEST_F(MaterializedViewTest, ViewRejectsMissingHierarchy) {
  CubeEntry view = View(schema(), {"product"});
  CubeQuery query;
  query.group_by = *GroupBySet::FromLevelNames(schema(), {"product"});
  query.predicates = {{2, 1, PredicateOp::kEquals, {"Italy"}}};
  query.measures = {0};
  EXPECT_FALSE(
      EntryAnswersQuery(schema(), CanonicalizeQuery(query), view.query));
}

TEST_F(MaterializedViewTest, ViewRejectsFinerPredicateLevel) {
  CubeEntry view = View(schema(), {"product", "country"});
  CubeQuery query;
  query.group_by = *GroupBySet::FromLevelNames(schema(), {"product"});
  query.predicates = {{2, 0, PredicateOp::kEquals, {"SmartMart"}}};
  query.measures = {0};
  EXPECT_FALSE(
      EntryAnswersQuery(schema(), CanonicalizeQuery(query), view.query));
}

TEST_F(MaterializedViewTest, AvgMeasureDisqualifies) {
  CubeSchema avg_schema("X");
  avg_schema.AddHierarchy(mini_.schema->hierarchy_ptr(1));
  avg_schema.AddMeasure({"m", AggOp::kAvg});
  CubeEntry view = View(avg_schema, {"product"});
  CubeQuery query;
  query.group_by = *GroupBySet::FromLevelNames(avg_schema, {"type"});
  query.measures = {0};
  EXPECT_FALSE(
      EntryAnswersQuery(avg_schema, CanonicalizeQuery(query), view.query));
}

TEST_F(MaterializedViewTest, PickBestPrefersSmallest) {
  CubeEntry big = View(schema(), {"product", "country"});
  CubeEntry small = View(schema(), {"type", "country"});
  // Sizes: fake by adding rows to `big` only.
  big.cube = Cube({LevelRef{mini_.schema->hierarchy_ptr(1), 0}}, {"m"});
  big.cube.AddRow({0}, {1});
  big.cube.AddRow({1}, {1});
  small.cube = Cube({LevelRef{mini_.schema->hierarchy_ptr(1), 1}}, {"m"});
  small.cube.AddRow({0}, {1});

  CubeQuery query;
  query.group_by = *GroupBySet::FromLevelNames(schema(), {"country"});
  query.measures = {0};
  std::vector<CubeEntry> views;
  views.push_back(std::move(big));
  views.push_back(std::move(small));
  EXPECT_EQ(SmallestAnsweringEntry(schema(), CanonicalizeQuery(query), views),
            &views[1]);
}

TEST_F(MaterializedViewTest, PickBestNoneApplicable) {
  CubeQuery query;
  query.group_by = *GroupBySet::FromLevelNames(schema(), {"product"});
  query.measures = {0};
  std::vector<CubeEntry> views;
  views.push_back(View(schema(), {"year"}));
  EXPECT_EQ(SmallestAnsweringEntry(schema(), CanonicalizeQuery(query), views),
            nullptr);
}

}  // namespace
}  // namespace assess
