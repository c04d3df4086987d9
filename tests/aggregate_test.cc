// The aggregate functions of olap/aggregate.h, and every path that
// re-aggregates a stored result with them: a cache subsumption hit, a query
// answered from a materialized view, and a view delta-merged by an ingest.
// Each must equal the cold fact scan bit for bit for SUM, MIN, MAX and
// COUNT. The measures are integer-valued, so every sum is exact whatever
// the order of its adds, and a difference in any bit is a wrong roll-up.
// AVG has no roll-up: it must be refused by the cache and the views and
// rebuilt in full by an ingest.

#include "olap/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/task_pool.h"
#include "ingest/ingestor.h"
#include "olap/cube_query.h"
#include "storage/star_query_engine.h"
#include "storage/star_schema.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Coordinate -> bit pattern of one measure.
std::map<std::vector<std::string>, uint64_t> BitMap(
    const Cube& cube, const std::string& measure) {
  std::map<std::vector<std::string>, uint64_t> out;
  for (const auto& [coord, value] : CellMap(cube, measure)) {
    out[coord] = Bits(value);
  }
  return out;
}

const std::vector<std::string> kRollupMeasures = {"s", "lo", "hi", "n"};

// Items (12, in 3 kinds) by shops (6, in 2 regions), with a SUM, MIN, MAX
// and COUNT measure (plus an AVG one when `with_avg`) over the same
// integer value in [-50000, 50000], wide enough that every cell has its own
// extremes. The fact table spans two morsels, so the cold scans merge
// partial states too.
struct Star {
  std::unique_ptr<StarDatabase> db;
  std::shared_ptr<CubeSchema> schema;
  BoundCube* bound = nullptr;
};

Star BuildStar(bool with_avg) {
  Star star;
  star.schema = std::make_shared<CubeSchema>("R");
  auto item = std::make_shared<Hierarchy>("Item");
  item->AddLevel("item");
  item->AddLevel("kind");
  DimensionTable items("Item", item);
  for (int k = 0; k < 3; ++k) item->AddMember(1, "k" + std::to_string(k));
  for (int i = 0; i < 12; ++i) {
    MemberId m = item->AddMember(0, "i" + std::to_string(i));
    item->SetParent(0, m, i % 3);
    items.AddRow({m, i % 3});
  }
  auto shop = std::make_shared<Hierarchy>("Shop");
  shop->AddLevel("shop");
  shop->AddLevel("region");
  DimensionTable shops("Shop", shop);
  for (int r = 0; r < 2; ++r) shop->AddMember(1, "r" + std::to_string(r));
  for (int s = 0; s < 6; ++s) {
    MemberId m = shop->AddMember(0, "s" + std::to_string(s));
    shop->SetParent(0, m, s % 2);
    shops.AddRow({m, s % 2});
  }
  star.schema->AddHierarchy(item);
  star.schema->AddHierarchy(shop);
  star.schema->AddMeasure({"s", AggOp::kSum});
  star.schema->AddMeasure({"lo", AggOp::kMin});
  star.schema->AddMeasure({"hi", AggOp::kMax});
  star.schema->AddMeasure({"n", AggOp::kCount});
  if (with_avg) star.schema->AddMeasure({"a", AggOp::kAvg});
  const int num_measures = star.schema->measure_count();
  FactTable facts("R", 2, num_measures);
  Rng rng(7);
  const int64_t rows = kMorselRows + 1000;
  facts.Reserve(rows);
  for (int64_t r = 0; r < rows; ++r) {
    const double v = static_cast<double>(rng.Uniform(100001)) - 50000.0;
    facts.AddRow({static_cast<int32_t>(rng.Uniform(12)),
                  static_cast<int32_t>(rng.Uniform(6))},
                 std::vector<double>(num_measures, v));
  }
  star.db = std::make_unique<StarDatabase>();
  EXPECT_TRUE(star.db
                  ->Register("R", std::make_unique<BoundCube>(
                                      star.schema,
                                      std::vector<DimensionTable>{items, shops},
                                      std::move(facts)))
                  .ok());
  star.bound = *star.db->FindMutable("R");
  return star;
}

CubeQuery Query(const Star& star, const std::vector<std::string>& by,
                const std::vector<std::string>& measures,
                std::vector<Predicate> preds = {}) {
  auto q = CubeQuery::Make(*star.schema, "R", by, std::move(preds), measures);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// `actual` equals the cold fact scan of `query` in every bit of every
// measure of `measures`.
void ExpectColdScanBits(const Star& star, const CubeQuery& query,
                        const Cube& actual,
                        const std::vector<std::string>& measures) {
  StarQueryEngine cold(star.db.get(), /*use_views=*/false, /*threads=*/1);
  auto want = cold.Execute(query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_GT(want->NumRows(), 0);
  for (const std::string& m : measures) {
    EXPECT_EQ(BitMap(actual, m), BitMap(*want, m)) << m;
  }
}

Predicate KindIn(std::vector<std::string> kinds) {
  return Predicate{0, 1, PredicateOp::kIn, std::move(kinds)};
}

TEST(AggregateTest, RollupOpMapsEachOperator) {
  EXPECT_EQ(agg::RollupOp(AggOp::kSum), AggOp::kSum);
  EXPECT_EQ(agg::RollupOp(AggOp::kCount), AggOp::kSum);
  EXPECT_EQ(agg::RollupOp(AggOp::kMin), AggOp::kMin);
  EXPECT_EQ(agg::RollupOp(AggOp::kMax), AggOp::kMax);
  EXPECT_FALSE(agg::RollupOp(AggOp::kAvg).has_value());
}

// MIN and MAX replace the running value only by a strictly smaller (larger)
// one: a NaN never enters, and the first of two equal zeros stays — in a
// row fold and in a merge of sub-aggregates alike.
TEST(AggregateTest, MinMaxSkipNaNAndKeepTheFirstZero) {
  for (AggOp op : {AggOp::kMin, AggOp::kMax}) {
    std::vector<agg::Column> cols(1);
    cols[0].op = op;
    agg::AppendGroup(cols);
    agg::AppendGroup(cols);
    for (double v : {0.0, -0.0, kNullMeasure}) agg::Iter(cols[0], 0, v);
    for (double v : {-0.0, 0.0}) agg::Iter(cols[0], 1, v);
    EXPECT_EQ(Bits(cols[0].acc[0]), Bits(0.0)) << AggOpToString(op);
    EXPECT_EQ(Bits(cols[0].acc[1]), Bits(-0.0)) << AggOpToString(op);
    agg::Merge(cols[0], 0, cols[0], 1);
    EXPECT_EQ(Bits(cols[0].acc[0]), Bits(0.0)) << AggOpToString(op);
    EXPECT_TRUE(cols[0].cnt.empty());
  }
}

// AVG keeps (sum, count) per group, merges both parts and divides only at
// Final; a group with no rows finalizes to kNullMeasure.
TEST(AggregateTest, AvgMergesSumAndCountThenDivides) {
  std::vector<agg::Column> cols(1);
  cols[0].op = AggOp::kAvg;
  for (int g = 0; g < 3; ++g) agg::AppendGroup(cols);
  for (double v : {1.0, 2.0}) agg::Iter(cols[0], 0, v);
  for (double v : {3.0, 4.0, 5.0}) agg::Iter(cols[0], 1, v);
  agg::Merge(cols[0], 0, cols[0], 1);
  const std::vector<double> out = agg::Final(cols[0]);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 3.0);  // (1 + 2 + 3 + 4 + 5) / 5
  EXPECT_EQ(out[1], 4.0);
  EXPECT_TRUE(std::isnan(out[2]));
}

TEST(AggregateRollupTest, SubsumptionHitMatchesColdScan) {
  Star star = BuildStar(/*with_avg=*/false);
  EngineOptions options;
  options.use_views = false;
  options.threads = 1;
  StarQueryEngine engine(star.db.get(), options);
  ASSERT_TRUE(engine.Execute(Query(star, {"item", "shop"}, kRollupMeasures))
                  .ok());
  for (const CubeQuery& coarse :
       {Query(star, {"kind", "region"}, kRollupMeasures),
        Query(star, {"region"}, kRollupMeasures, {KindIn({"k0", "k2"})}),
        Query(star, {}, kRollupMeasures)}) {
    auto hit = engine.Execute(coarse);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(engine.last_cache_outcome(), CacheOutcome::kSubsumptionHit);
    ExpectColdScanBits(star, coarse, *hit, kRollupMeasures);
  }
}

TEST(AggregateRollupTest, ViewAnsweredQueryMatchesColdScan) {
  Star star = BuildStar(/*with_avg=*/false);
  StarQueryEngine engine(star.db.get(), /*use_views=*/true, /*threads=*/1);
  ASSERT_TRUE(
      engine.MaterializeView(star.db.get(), "R", {"item", "shop"}, "v").ok());
  for (const CubeQuery& coarse :
       {Query(star, {"kind", "region"}, kRollupMeasures),
        Query(star, {"item"}, kRollupMeasures, {KindIn({"k1"})})}) {
    auto answer = engine.Execute(coarse);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(engine.last_used_view());
    ExpectColdScanBits(star, coarse, *answer, kRollupMeasures);
  }
}

TEST(AggregateRollupTest, DeltaMergedViewMatchesColdScan) {
  Star star = BuildStar(/*with_avg=*/false);
  StarQueryEngine engine(star.db.get(), /*use_views=*/true, /*threads=*/1);
  ASSERT_TRUE(
      engine.MaterializeView(star.db.get(), "R", {"item", "region"}, "v1")
          .ok());
  ASSERT_TRUE(engine.MaterializeView(star.db.get(), "R", {"kind"}, "v2").ok());

  // New extremes for some groups, a new count for every touched one, and
  // values that leave others' extremes alone.
  Ingestor ingestor(star.db.get(), nullptr, {});
  for (const char* rows :
       {"i0,s1,90000,90000,90000,90000\ni4,s2,-7,-7,-7,-7\n",
        "i0,s3,-90000,-90000,-90000,-90000\ni11,s0,3,3,3,3\n"}) {
    auto stats = ingestor.IngestText(
        "R", std::string("item,shop,s,lo,hi,n\n") + rows);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->mv_incremental_updates, 2u);
    EXPECT_EQ(stats->mv_full_rebuilds, 0u);
  }

  std::shared_ptr<const std::vector<CubeEntry>> views =
      star.bound->views_snapshot();
  ASSERT_EQ(views->size(), 2u);
  for (const CubeEntry& view : *views) {
    EXPECT_EQ(view.query.epoch, star.bound->facts().epoch());
    std::vector<std::string> by;
    for (const LevelRef& level : view.cube.levels()) by.push_back(level.name());
    ExpectColdScanBits(star, Query(star, by, kRollupMeasures), view.cube,
                       kRollupMeasures);
  }
  const CubeQuery coarse = Query(star, {"region"}, kRollupMeasures);
  auto answer = engine.Execute(coarse);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(engine.last_used_view());
  ExpectColdScanBits(star, coarse, *answer, kRollupMeasures);
}

// AVG is refused per measure: a request naming it scans, the same request
// without it rolls up, and an ingest rebuilds the cube's views in full.
TEST(AggregateRollupTest, AvgIsNeverRolledUp) {
  Star star = BuildStar(/*with_avg=*/true);
  const std::vector<std::string> all = {"s", "lo", "hi", "n", "a"};
  EngineOptions options;
  options.use_views = false;
  options.threads = 1;
  StarQueryEngine cached(star.db.get(), options);
  ASSERT_TRUE(cached.Execute(Query(star, {"item", "shop"}, all)).ok());
  const CubeQuery with_avg = Query(star, {"kind"}, all);
  auto scanned = cached.Execute(with_avg);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kMiss);
  ExpectColdScanBits(star, with_avg, *scanned, all);
  ASSERT_TRUE(cached.Execute(Query(star, {"region"}, kRollupMeasures)).ok());
  EXPECT_EQ(cached.last_cache_outcome(), CacheOutcome::kSubsumptionHit);

  StarQueryEngine viewed(star.db.get(), /*use_views=*/true, /*threads=*/1);
  ASSERT_TRUE(
      viewed.MaterializeView(star.db.get(), "R", {"item", "shop"}, "v").ok());
  ASSERT_TRUE(viewed.Execute(Query(star, {"kind"}, {"a"})).ok());
  EXPECT_FALSE(viewed.last_used_view());
  ASSERT_TRUE(viewed.Execute(Query(star, {"kind"}, {"s"})).ok());
  EXPECT_TRUE(viewed.last_used_view());

  Ingestor ingestor(star.db.get(), nullptr, {});
  auto stats =
      ingestor.IngestText("R", "item,shop,s,lo,hi,n,a\ni0,s1,9,9,9,9,9\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->mv_full_rebuilds, 1u);
  EXPECT_EQ(stats->mv_incremental_updates, 0u);
  std::shared_ptr<const std::vector<CubeEntry>> views =
      star.bound->views_snapshot();
  ASSERT_EQ(views->size(), 1u);
  ExpectColdScanBits(star, Query(star, {"item", "shop"}, all),
                     (*views)[0].cube, all);
}

}  // namespace
}  // namespace assess
