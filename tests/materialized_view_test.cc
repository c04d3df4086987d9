// Edge cases of the one answerability rule (EntryAnswersQuery) applied to
// materialized views, which are cache-typed entries with no predicates:
// avg-measure disqualification, predicate levels relative to the view's
// group-by, and empty-view behavior.

#include <gtest/gtest.h>

#include "cache/cube_cache.h"
#include "cache/query_fingerprint.h"
#include "storage/star_query_engine.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;

class MaterializedViewTest : public ::testing::Test {
 protected:
  MaterializedViewTest() : mini_(testutil::BuildMiniSales()) {}

  CubeQuery Query(const std::vector<std::string>& by,
                  std::vector<Predicate> preds,
                  const std::vector<std::string>& measures) {
    auto q = CubeQuery::Make(*mini_.schema, "SALES", by, std::move(preds),
                             measures);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  // `q` as the engine asks views: canonical, at the facts' current epoch.
  CanonicalQuery Want(const CubeQuery& q) {
    CanonicalQuery want = CanonicalizeQuery(q);
    want.epoch = (*mini_.db->Find("SALES"))->facts().epoch();
    return want;
  }

  CubeEntry MakeView(const std::vector<std::string>& levels,
                     const std::string& name) {
    StarQueryEngine engine(mini_.db.get());
    EXPECT_TRUE(
        engine.MaterializeView(mini_.db.get(), "SALES", levels, name).ok());
    const BoundCube* bound = *mini_.db->Find("SALES");
    return bound->views_snapshot()->back();
  }

  testutil::MiniDb mini_;
};

TEST_F(MaterializedViewTest, AvgMeasureDisqualifiesTheView) {
  // An avg measure cannot be re-aggregated from pre-aggregated cells, even
  // when every level is available at finer granularity.
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  hier->AddLevel("g");
  MemberId k0 = hier->AddMember(0, "k0");
  MemberId g0 = hier->AddMember(1, "g0");
  hier->SetParent(0, k0, g0);
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  schema->AddMeasure({"a", AggOp::kAvg});

  CubeEntry view;
  view.query.cube_name = "T";
  view.query.group_by = GroupBySet(1);
  view.query.group_by.SetLevel(0, 0);
  view.query.measures = {0, 1};
  view.cube = Cube({LevelRef{hier, 0}}, {"s", "a"});

  CubeQuery sum_query;
  sum_query.cube_name = "T";
  sum_query.group_by = GroupBySet(1);
  sum_query.group_by.SetLevel(0, 1);
  sum_query.measures = {0};
  EXPECT_TRUE(
      EntryAnswersQuery(*schema, CanonicalizeQuery(sum_query), view.query));

  CubeQuery avg_query = sum_query;
  avg_query.measures = {0, 1};
  EXPECT_FALSE(
      EntryAnswersQuery(*schema, CanonicalizeQuery(avg_query), view.query));
}

TEST_F(MaterializedViewTest, PredicateCoarserThanViewGroupByIsAnswerable) {
  // View at month granularity; a predicate on year (coarser) is evaluable
  // by rolling the view's month members up.
  CubeEntry view = MakeView({"month", "product", "store"}, "mv_m");
  CubeQuery q = Query({"product"}, {{0, 2, PredicateOp::kEquals, {"1997"}}},
                      {"quantity"});
  EXPECT_TRUE(EntryAnswersQuery(*mini_.schema, Want(q), view.query));

  StarQueryEngine with_views(mini_.db.get());
  StarQueryEngine no_views(mini_.db.get(), /*use_views=*/false);
  Cube expected = *no_views.Execute(q);
  Cube actual = *with_views.Execute(q);
  EXPECT_TRUE(with_views.last_used_view());
  EXPECT_EQ(CellMap(expected, "quantity"), CellMap(actual, "quantity"));
}

TEST_F(MaterializedViewTest, PredicateFinerThanViewGroupByDisqualifies) {
  // View at year granularity cannot evaluate a month-level slice: the
  // year cells aggregate over the months the predicate must discriminate.
  CubeEntry view = MakeView({"year", "product"}, "mv_y");
  CubeQuery q = Query({"product"},
                      {{0, 1, PredicateOp::kEquals, {"1997-07"}}},
                      {"quantity"});
  EXPECT_FALSE(EntryAnswersQuery(*mini_.schema, Want(q), view.query));
  EXPECT_EQ(SmallestAnsweringEntry(*mini_.schema, Want(q), {view}), nullptr);
}

TEST_F(MaterializedViewTest, PredicateOnHierarchyAbsentFromViewDisqualifies) {
  CubeEntry view = MakeView({"month", "product"}, "mv_mp");
  CubeQuery q = Query({"product"}, {{2, 1, PredicateOp::kEquals, {"Italy"}}},
                      {"quantity"});
  EXPECT_FALSE(EntryAnswersQuery(*mini_.schema, Want(q), view.query));
}

TEST_F(MaterializedViewTest, EmptyViewAnswersWithEmptyCube) {
  // A view over an empty fact table is picked (0 rows is the smallest
  // applicable view) and yields an empty result without error.
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  hier->AddLevel("g");
  MemberId k0 = hier->AddMember(0, "k0");
  MemberId g0 = hier->AddMember(1, "g0");
  hier->SetParent(0, k0, g0);
  auto schema = std::make_shared<CubeSchema>("E");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  DimensionTable dim("k", hier);
  dim.AddRow({k0, g0});
  FactTable facts("E", 1, 1);
  StarDatabase db;
  ASSERT_TRUE(db.Register("E", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine engine(&db);
  auto rows = engine.MaterializeView(&db, "E", {"k"}, "mv_empty");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 0);

  CubeQuery q = *CubeQuery::Make(*schema, "E", {"g"}, {}, {"s"});
  auto cube = engine.Execute(q);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_TRUE(engine.last_used_view());
  EXPECT_EQ(cube->NumRows(), 0);
}

}  // namespace
}  // namespace assess
