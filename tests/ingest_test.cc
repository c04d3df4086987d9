// Streaming ingestion: CSV/JSONL parsing with typed per-line errors, member
// auto-insert with roll-up validation, one epoch-stamped commit per request
// (a failed request lands no row and no member), incremental
// materialized-view maintenance proven bit-identical to a from-scratch
// rebuild, epoch-keyed result-cache invalidation, scans after dimension
// growth past byte-sized codes, snapshot isolation under concurrent
// append/auto-insert/query churn, and the kIngest wire frame end to end
// (including at-most-once retry via the server's receipt store).

#include "ingest/ingestor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "assess/session.h"
#include "cache/query_fingerprint.h"
#include "client/assess_client.h"
#include "common/failpoint.h"
#include "olap/cube_query.h"
#include "olap/group_by_set.h"
#include "server/assessd.h"
#include "server/protocol.h"
#include "ssb/ssb_generator.h"
#include "storage/star_query_engine.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;
using ::assess::testutil::CellMap;
using ::assess::testutil::K;

constexpr char kSalesHeader[] = "date,product,store,quantity,sales\n";

/// `rows` member-stable SALES rows with quantity 1, after the CSV header.
std::string StableRows(int rows) {
  const char* products[] = {"Apple", "Pear", "Lemon", "milk"};
  const char* stores[] = {"SmartMart", "PetitPrix"};
  std::string text = kSalesHeader;
  for (int i = 0; i < rows; ++i) {
    text += std::string("1997-07-0") + (i % 2 == 0 ? "1" : "2") + "," +
            products[i % 4] + "," + stores[i % 2] + ",1," +
            std::to_string(i % 7) + "\n";
  }
  return text;
}

/// Aggregates the whole committed fact prefix at `level_names` through the
/// delta-aggregation primitive — the ground truth ingest results are
/// checked against.
Cube AggregateAll(const StarDatabase& db, const BoundCube& bound,
                  const std::vector<std::string>& level_names) {
  StarQueryEngine engine(&db, /*use_views=*/false, /*threads=*/1);
  auto group_by = GroupBySet::FromLevelNames(bound.schema(), level_names);
  EXPECT_TRUE(group_by.ok()) << group_by.status().ToString();
  auto cube = engine.AggregateFactRange(bound, *group_by, 0,
                                        bound.facts().NumRows());
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  return *std::move(cube);
}

class IngestTest : public ::testing::Test {
 protected:
  IngestTest() : mini_(BuildMiniSales()) {
    bound_ = *mini_.db->FindMutable("SALES");
  }

  Result<IngestStats> Ingest(std::string_view text, IngestOptions options = {},
                             std::shared_ptr<CubeResultCache> cache = nullptr) {
    Ingestor ingestor(mini_.db.get(), std::move(cache), options);
    return ingestor.IngestText("SALES", text);
  }

  testutil::MiniDb mini_;
  BoundCube* bound_ = nullptr;
};

TEST_F(IngestTest, CsvRowsLandAndQueriesSeeThem) {
  const int64_t rows_before = bound_->facts().NumRows();
  const uint64_t epoch_before = bound_->facts().epoch();
  auto before = CellMap(AggregateAll(*mini_.db, *bound_, {"product"}),
                        "quantity");

  auto stats = Ingest(
      "date,product,store,quantity,sales\n"
      "1997-07-02,Apple,SmartMart,5,7\n"
      "1997-07-01,Pear,PetitPrix,3,2\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_ingested, 2u);
  EXPECT_EQ(stats->rows_rejected, 0u);
  EXPECT_EQ(stats->batches, 1u);
  EXPECT_EQ(stats->new_members, 0u);
  EXPECT_GT(stats->epoch, epoch_before);
  EXPECT_EQ(stats->epoch, bound_->facts().epoch());
  EXPECT_EQ(bound_->facts().NumRows(), rows_before + 2);

  auto after = CellMap(AggregateAll(*mini_.db, *bound_, {"product"}),
                       "quantity");
  EXPECT_EQ(after[K("Apple")], before[K("Apple")] + 5);
  EXPECT_EQ(after[K("Pear")], before[K("Pear")] + 3);
  EXPECT_EQ(after[K("Lemon")], before[K("Lemon")]);

  // End to end: a fresh session aggregates the appended rows too.
  AssessSession session(mini_.db.get());
  auto result = session.Query(
      "with SALES by product assess quantity labels quartiles");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(CellMap(result->cube, "quantity")[K("Apple")],
            before[K("Apple")] + 5);
}

TEST_F(IngestTest, JsonlRowsLandWithPerRowKeys) {
  auto before = CellMap(AggregateAll(*mini_.db, *bound_, {"store"}), "sales");
  IngestOptions options;
  options.format = IngestFormat::kJsonl;
  auto stats = Ingest(
      R"({"date": "1997-07-01", "product": "milk", "store": "SmartMart",)"
      R"( "quantity": 0, "sales": 11})"
      "\n"
      R"({"store": "PetitPrix", "sales": 4, "quantity": 1,)"
      R"( "product": "Lemon", "date": "1997-07-02"})"
      "\n",
      options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_ingested, 2u);
  auto after = CellMap(AggregateAll(*mini_.db, *bound_, {"store"}), "sales");
  EXPECT_EQ(after[K("SmartMart")], before[K("SmartMart")] + 11);
  EXPECT_EQ(after[K("PetitPrix")], before[K("PetitPrix")] + 4);
}

TEST_F(IngestTest, MalformedCsvProducesTypedLineErrors) {
  const int64_t rows_before = bound_->facts().NumRows();

  // Unknown header column: fatal, nothing ingested.
  auto bad_header = Ingest("date,product,store,quantity,sales,discount\n");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_EQ(bad_header.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_header.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(bad_header.status().message().find("discount"),
            std::string::npos);

  // Missing required key column in the header.
  auto no_key = Ingest("date,product,quantity,sales\n");
  ASSERT_FALSE(no_key.ok());
  EXPECT_EQ(no_key.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_key.status().message().find("store"), std::string::npos);

  const std::string header = "date,product,store,quantity,sales\n";

  // Unparsable measure carries its 1-based line number.
  auto bad_measure =
      Ingest(header + "1997-07-01,Apple,SmartMart,ten,0\n");
  ASSERT_FALSE(bad_measure.ok());
  EXPECT_EQ(bad_measure.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_measure.status().message().find("line 2"), std::string::npos);

  // Field-count mismatch against the header.
  auto short_row = Ingest(header + "1997-07-01,Apple,SmartMart,1\n");
  ASSERT_FALSE(short_row.ok());
  EXPECT_EQ(short_row.status().code(), StatusCode::kInvalidArgument);

  // Unterminated quoted field.
  auto bad_quote = Ingest(header + "\"1997-07-01,Apple,SmartMart,1,2\n");
  ASSERT_FALSE(bad_quote.ok());
  EXPECT_EQ(bad_quote.status().code(), StatusCode::kInvalidArgument);

  // Unknown member with auto-insert off is kNotFound, not a parse error.
  auto unknown = Ingest(header + "1997-07-01,Durian,SmartMart,1,2\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("Durian"), std::string::npos);

  // Strict mode rejected everything before any commit.
  EXPECT_EQ(bound_->facts().NumRows(), rows_before);

  // max_errors tolerates the bad row and lands the good ones.
  IngestOptions tolerant;
  tolerant.max_errors = 1;
  auto mixed = Ingest(header +
                          "1997-07-01,Apple,SmartMart,1,0\n"
                          "1997-07-01,Durian,SmartMart,1,0\n"
                          "1997-07-02,Pear,PetitPrix,2,0\n",
                      tolerant);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed->rows_ingested, 2u);
  EXPECT_EQ(mixed->rows_rejected, 1u);
  EXPECT_EQ(bound_->facts().NumRows(), rows_before + 2);
}

TEST_F(IngestTest, MalformedJsonlProducesTypedLineErrors) {
  IngestOptions options;
  options.format = IngestFormat::kJsonl;

  auto not_json = Ingest("this is not json\n", options);
  ASSERT_FALSE(not_json.ok());
  EXPECT_EQ(not_json.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(not_json.status().message().find("line 1"), std::string::npos);

  auto missing_measure = Ingest(
      R"({"date": "1997-07-01", "product": "Apple", "store": "SmartMart",)"
      R"( "quantity": 1})"
      "\n",
      options);
  ASSERT_FALSE(missing_measure.ok());
  EXPECT_EQ(missing_measure.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing_measure.status().message().find("sales"),
            std::string::npos);

  auto unknown_key = Ingest(
      R"({"date": "1997-07-01", "product": "Apple", "store": "SmartMart",)"
      R"( "quantity": 1, "sales": 2, "discount": 3})"
      "\n",
      options);
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_EQ(unknown_key.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown_key.status().message().find("discount"),
            std::string::npos);

  // A null key value means "absent" — for a required key that is an error.
  auto null_key = Ingest(
      R"({"date": null, "product": "Apple", "store": "SmartMart",)"
      R"( "quantity": 1, "sales": 2})"
      "\n",
      options);
  ASSERT_FALSE(null_key.ok());
  EXPECT_EQ(null_key.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IngestTest, AutoInsertGrowsDimensionsAndValidatesRollups) {
  IngestOptions options;
  options.auto_insert_members = true;
  const std::string header = "date,product,type,store,quantity,sales\n";

  auto stats =
      Ingest(header + "1997-07-01,Mango,Fresh Fruit,SmartMart,12,0\n",
             options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_ingested, 1u);
  EXPECT_EQ(stats->new_members, 1u);

  auto by_product =
      CellMap(AggregateAll(*mini_.db, *bound_, {"product"}), "quantity");
  EXPECT_EQ(by_product[K("Mango")], 12);
  // The new member rolls up: type-level aggregation includes it.
  auto by_type = CellMap(AggregateAll(*mini_.db, *bound_, {"type"}),
                         "quantity");
  EXPECT_EQ(by_type[K("Fresh Fruit")], 250 + 200 + 50 + 12);

  // Auto-insert needs the whole roll-up chain.
  auto missing_parent = Ingest(
      "date,product,store,quantity,sales\n"
      "1997-07-01,Papaya,SmartMart,1,0\n",
      options);
  ASSERT_FALSE(missing_parent.ok());
  EXPECT_EQ(missing_parent.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing_parent.status().message().find("type"),
            std::string::npos);

  // An existing member must keep its stored roll-up.
  auto conflict =
      Ingest(header + "1997-07-01,Apple,Dairy,SmartMart,1,0\n", options);
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(conflict.status().message().find("rolls up to"),
            std::string::npos);

  // Same conflict check without auto-insert: provided coarser values are
  // validated against the dictionary.
  auto conflict_stable =
      Ingest(header + "1997-07-01,Apple,Dairy,SmartMart,1,0\n");
  ASSERT_FALSE(conflict_stable.ok());
  EXPECT_EQ(conflict_stable.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IngestTest, IncrementalViewMaintenanceMatchesFromScratchRebuild) {
  StarQueryEngine engine(mini_.db.get(), /*use_views=*/false, /*threads=*/1);
  ASSERT_TRUE(engine
                  .MaterializeView(mini_.db.get(), "SALES",
                                   {"product", "country"}, "pv_pc")
                  .ok());
  ASSERT_TRUE(
      engine.MaterializeView(mini_.db.get(), "SALES", {"month"}, "pv_m")
          .ok());

  // Many small requests (two rows each, one at the end): every commit must
  // delta-merge both views.
  const char* products[] = {"Apple", "Pear", "Lemon", "milk"};
  const char* stores[] = {"SmartMart", "PetitPrix"};
  const char* dates[] = {"1997-07-01", "1997-07-02", "1997-03-15"};
  IngestStats total;
  for (int first = 0; first < 9; first += 2) {
    std::string text = kSalesHeader;
    for (int i = first; i < std::min(first + 2, 9); ++i) {
      text += std::string(dates[i % 3]) + "," + products[i % 4] + "," +
              stores[i % 2] + "," + std::to_string(i + 1) + "," +
              std::to_string(2 * i) + "\n";
    }
    auto stats = Ingest(text);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    total.rows_ingested += stats->rows_ingested;
    total.batches += stats->batches;
    total.mv_incremental_updates += stats->mv_incremental_updates;
    total.mv_full_rebuilds += stats->mv_full_rebuilds;
  }
  EXPECT_EQ(total.rows_ingested, 9u);
  EXPECT_EQ(total.batches, 5u);
  EXPECT_EQ(total.mv_incremental_updates, 2u * total.batches);
  EXPECT_EQ(total.mv_full_rebuilds, 0u);

  // Every maintained view is stamped at the final epoch.
  std::shared_ptr<const std::vector<CubeEntry>> views =
      bound_->views_snapshot();
  ASSERT_EQ(views->size(), 2u);
  for (const CubeEntry& view : *views) {
    EXPECT_EQ(view.query.epoch, bound_->facts().epoch());
  }

  // Bit-identity: each maintained view equals a from-scratch aggregation of
  // the full fact prefix (integer measures, so no FP-order slack needed).
  for (const CubeEntry& view : *views) {
    const std::string name = FingerprintKey(view.query);
    auto rebuilt = engine.AggregateFactRange(*bound_, view.query.group_by, 0,
                                             bound_->facts().NumRows());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ASSERT_EQ(view.cube.NumRows(), rebuilt->NumRows()) << name;
    for (const char* measure : {"quantity", "sales"}) {
      auto expected = CellMap(*rebuilt, measure);
      auto actual = CellMap(view.cube, measure);
      EXPECT_EQ(actual, expected) << name << " " << measure;
    }
  }

  // And queries answered *from* the maintained views match fact scans.
  StarQueryEngine with_views(mini_.db.get(), /*use_views=*/true,
                             /*threads=*/1);
  auto query = CubeQuery::Make(*mini_.schema, "SALES",
                               {"product", "country"}, {}, {"sales"});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto from_views = with_views.Execute(*query);
  ASSERT_TRUE(from_views.ok()) << from_views.status().ToString();
  EXPECT_TRUE(with_views.last_used_view());
  auto from_facts = AggregateAll(*mini_.db, *bound_, {"product", "country"});
  EXPECT_EQ(CellMap(*from_views, "sales"), CellMap(from_facts, "sales"));
}

// An avg measure cannot be delta-merged, so every request rebuilds the
// views of its cube from the full fact prefix.
TEST_F(IngestTest, AvgMeasureViewsRebuildEveryBatch) {
  auto schema = std::make_shared<CubeSchema>("PRICES");
  schema->AddHierarchy(mini_.schema->hierarchy_ptr(1));
  schema->AddMeasure({"quantity", AggOp::kSum});
  schema->AddMeasure({"price", AggOp::kAvg});
  ASSERT_TRUE(mini_.db
                  ->Register("PRICES",
                             std::make_unique<BoundCube>(
                                 schema,
                                 std::vector<DimensionTable>{
                                     bound_->dimension(1)},
                                 FactTable("PRICES", 1, 2)))
                  .ok());
  BoundCube* prices = *mini_.db->FindMutable("PRICES");
  StarQueryEngine engine(mini_.db.get(), /*use_views=*/false, /*threads=*/1);
  ASSERT_TRUE(
      engine.MaterializeView(mini_.db.get(), "PRICES", {"type"}, "pv_t")
          .ok());

  Ingestor ingestor(mini_.db.get(), nullptr, {});
  IngestStats total;
  for (const char* row : {"Apple,1,2.5\n", "Pear,2,3.25\n", "Lemon,3,1.5\n"}) {
    auto stats =
        ingestor.IngestText("PRICES", std::string("product,quantity,price\n") +
                                          row);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    total.batches += stats->batches;
    total.mv_full_rebuilds += stats->mv_full_rebuilds;
    total.mv_incremental_updates += stats->mv_incremental_updates;
  }
  EXPECT_EQ(total.batches, 3u);
  EXPECT_EQ(total.mv_full_rebuilds, 3u);
  EXPECT_EQ(total.mv_incremental_updates, 0u);

  std::shared_ptr<const std::vector<CubeEntry>> views =
      prices->views_snapshot();
  ASSERT_EQ(views->size(), 1u);
  const CubeEntry& view = (*views)[0];
  EXPECT_EQ(view.query.epoch, prices->facts().epoch());
  auto rebuilt = engine.AggregateFactRange(*prices, view.query.group_by, 0,
                                           prices->facts().NumRows());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  for (const char* measure : {"quantity", "price"}) {
    EXPECT_EQ(CellMap(view.cube, measure), CellMap(*rebuilt, measure))
        << measure;
  }
}

TEST_F(IngestTest, EpochKeyingInvalidatesCachedResults) {
  auto cache = std::make_shared<CubeResultCache>(CacheOptions{});
  EngineOptions engine_options;
  engine_options.shared_cache = cache;
  AssessSession session(mini_.db.get(), engine_options);
  const char* statement =
      "with SALES by product assess quantity labels quartiles";

  auto first = session.Query(statement);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = session.Query(statement);
  ASSERT_TRUE(second.ok());
  CacheStats warm = cache->stats();
  EXPECT_GE(warm.exact_hits, 1u);
  ASSERT_GT(warm.entries, 0u);

  auto stats = Ingest(
      "date,product,store,quantity,sales\n"
      "1997-07-01,Apple,SmartMart,100,0\n",
      {}, cache);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The eager sweep reclaimed every pre-ingest entry of this cube.
  EXPECT_EQ(stats->cache_invalidations, warm.entries);
  EXPECT_GE(cache->stats().epoch_invalidations, warm.entries);

  // Same statement at the new epoch: a miss, and the fresh result includes
  // the appended rows (a stale hit would miss the +100).
  const uint64_t misses_before = cache->stats().misses;
  auto third = session.Query(statement);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_GT(cache->stats().misses, misses_before);
  EXPECT_EQ(CellMap(third->cube, "quantity")[K("Apple")],
            CellMap(first->cube, "quantity")[K("Apple")] + 100);
}

TEST_F(IngestTest, DimensionGrowthPastByteCodesScansCorrectly) {
  // Pin a snapshot first, so the appends below publish new versions of the
  // row-range index while an older one is still held.
  FactSnapshot snap = bound_->facts().Snapshot();
  ASSERT_NE(snap.clustered, nullptr);

  // 300 new products, in requests of up to 64 rows, push the product FK
  // past 255.
  IngestOptions options;
  options.auto_insert_members = true;
  IngestStats total;
  for (int first = 0; first < 300; first += 64) {
    std::string text = "date,product,type,store,quantity,sales\n";
    for (int i = first; i < std::min(first + 64, 300); ++i) {
      text += "1997-07-01,sku-" + std::to_string(i) + ",Bulk,SmartMart,1,1\n";
    }
    auto stats = Ingest(text, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    total.rows_ingested += stats->rows_ingested;
    total.new_members += stats->new_members;
  }
  EXPECT_EQ(total.rows_ingested, 300u);
  EXPECT_EQ(total.new_members, 300u);

  // Scans over the grown FK codes still aggregate correctly.
  auto by_type = CellMap(AggregateAll(*mini_.db, *bound_, {"type"}),
                         "quantity");
  EXPECT_EQ(by_type[K("Bulk")], 300);
}

// SSB and BUDGET share their hierarchies but not their dimension tables. A
// customer BUDGET auto-inserts first is then in the shared dictionary with
// no SSB row: SSB must reject it without auto-insert, add exactly one row
// with it (interning nothing twice), and resolve it directly afterwards.
TEST(SharedHierarchyIngestTest, MemberInternedBySiblingCubeGetsOwnRow) {
  SsbConfig config;
  config.scale_factor = 0.002;
  auto built = BuildSsbDatabase(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  StarDatabase& db = **built;
  BoundCube* ssb = *db.FindMutable("SSB");
  BoundCube* budget = *db.FindMutable("BUDGET");
  const int kCustomer = 1;
  const Hierarchy& customers = ssb->dimension(kCustomer).hierarchy();
  ASSERT_EQ(&customers, &budget->dimension(kCustomer).hierarchy());

  // Existing members for the other keys and a real roll-up chain.
  auto name = [](const BoundCube* cube, int h, int level) {
    const DimensionTable& dim = cube->dimension(h);
    return dim.hierarchy().MemberName(level, dim.CodeAt(0, level));
  };
  const std::string keys = name(ssb, 0, 0) + ",Customer#shared," +
                           name(ssb, 2, 0) + "," + name(ssb, 3, 0) + "," +
                           name(ssb, 1, 1) + "," + name(ssb, 1, 2) + "," +
                           name(ssb, 1, 3);
  const std::string header =
      "date,customer,part,supplier,c_city,c_nation,c_region,";
  const int32_t members_before = customers.LevelCardinality(0);
  const int64_t ssb_rows_before = ssb->dimension(kCustomer).NumRows();

  IngestOptions auto_insert;
  auto_insert.auto_insert_members = true;
  auto budget_stats = Ingestor(&db, nullptr, auto_insert)
                          .IngestText("BUDGET", header + "plannedRevenue\n" +
                                                    keys + ",100\n");
  ASSERT_TRUE(budget_stats.ok()) << budget_stats.status().ToString();
  EXPECT_EQ(budget_stats->new_members, 1u);
  ASSERT_EQ(customers.LevelCardinality(0), members_before + 1);
  const MemberId shared = *customers.MemberIdOf(0, "Customer#shared");
  EXPECT_EQ(ssb->dimension(kCustomer).RowOfFinestCode(shared), -1);

  const std::string ssb_text = header + "quantity,revenue,supplycost\n" +
                               keys + ",7,70,35\n";
  auto refused = Ingestor(&db, nullptr, {}).IngestText("SSB", ssb_text);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kNotFound);

  auto first = Ingestor(&db, nullptr, auto_insert).IngestText("SSB", ssb_text);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->new_members, 1u);
  EXPECT_EQ(customers.LevelCardinality(0), members_before + 1);
  ASSERT_EQ(ssb->dimension(kCustomer).NumRows(), ssb_rows_before + 1);
  EXPECT_EQ(ssb->dimension(kCustomer).RowOfFinestCode(shared),
            ssb_rows_before);
  EXPECT_EQ(ssb->dimension(kCustomer).CodeAt(ssb_rows_before, 0), shared);

  // Now resolved through the row index, with no auto-insert needed.
  auto second = Ingestor(&db, nullptr, {}).IngestText("SSB", ssb_text);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->new_members, 0u);
  EXPECT_EQ(ssb->dimension(kCustomer).NumRows(), ssb_rows_before + 1);

  auto ssb_by_customer =
      CellMap(AggregateAll(db, *ssb, {"customer"}), "quantity");
  EXPECT_EQ(ssb_by_customer[K("Customer#shared")], 14);
  auto budget_by_customer =
      CellMap(AggregateAll(db, *budget, {"customer"}), "plannedRevenue");
  EXPECT_EQ(budget_by_customer[K("Customer#shared")], 100);
}

TEST_F(IngestTest, CommitFailpointLandsNothingOfItsRequest) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.DisarmAll();

  // A committed request survives a later one failing at its commit: the
  // failed request's rows and members vanish, the earlier epoch's rows do
  // not.
  auto committed = Ingest(
      "date,product,store,quantity,sales\n"
      "1997-07-01,Apple,SmartMart,1,0\n"
      "1997-07-01,Pear,SmartMart,1,0\n");
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  const int64_t rows_committed = bound_->facts().NumRows();
  const uint64_t epoch_committed = bound_->facts().epoch();
  const int64_t products_committed = bound_->dimension(1).NumRows();

  ASSERT_TRUE(
      registry.ArmFromString("ingest.commit=error(unavailable):budget=1")
          .ok());
  IngestOptions auto_insert;
  auto_insert.auto_insert_members = true;
  auto stats = Ingest(
      "date,product,type,store,quantity,sales\n"
      "1997-07-01,Lemon,,SmartMart,1,0\n"
      "1997-07-02,Quince,Fresh Fruit,PetitPrix,1,0\n"
      "1997-07-02,Pear,,PetitPrix,1,0\n",
      auto_insert);
  registry.DisarmAll();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  // The failing commit was atomic: no rows, no epoch bump, no member.
  EXPECT_EQ(bound_->facts().NumRows(), rows_committed);
  EXPECT_EQ(bound_->facts().epoch(), epoch_committed);
  EXPECT_EQ(bound_->dimension(1).NumRows(), products_committed);
  EXPECT_FALSE(bound_->dimension(1).hierarchy().MemberIdOf(0, "Quince").ok());

  // Row-level failpoint: rejected rows count against max_errors and the
  // remainder lands.
  ASSERT_TRUE(
      registry
          .ArmFromString("ingest.row=error(invalid_argument):budget=2")
          .ok());
  IngestOptions tolerant;
  tolerant.max_errors = 2;
  auto chaos = Ingest(
      "date,product,store,quantity,sales\n"
      "1997-07-01,Apple,SmartMart,1,0\n"
      "1997-07-01,Pear,SmartMart,1,0\n"
      "1997-07-01,Lemon,SmartMart,1,0\n",
      tolerant);
  registry.DisarmAll();
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  EXPECT_EQ(chaos->rows_rejected, 2u);
  EXPECT_EQ(chaos->rows_ingested, 1u);
}

TEST_F(IngestTest, StrictRequestWithABadLastLineLandsNothing) {
  const int64_t rows_before = bound_->facts().NumRows();
  const uint64_t epoch_before = bound_->facts().epoch();
  auto stats =
      Ingest(StableRows(8192) + "1997-07-01,Apple,SmartMart,ten,0\n");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find("line 8194"), std::string::npos);
  EXPECT_EQ(bound_->facts().NumRows(), rows_before);
  EXPECT_EQ(bound_->facts().epoch(), epoch_before);
}

/// Write-ahead hook that fails its `fail_call`-th call (1-based) with
/// kUnavailable and accepts every other.
class FailingHook : public CommitDurabilityHook {
 public:
  explicit FailingHook(int fail_call) : fail_call_(fail_call) {}
  Status OnCommit(const IngestCommit& /*commit*/) override {
    return ++calls_ == fail_call_ ? Status::Unavailable("injected WAL outage")
                                  : Status::OK();
  }
  int calls() const { return calls_; }

 private:
  int fail_call_;
  int calls_ = 0;
};

TEST_F(IngestTest, FailedCommitHookLandsNothingOfItsRequest) {
  // Two requests of 8,193 rows, each adding one product; the write-ahead
  // hook fails its second call. Each request lands whole or not at all.
  FailingHook hook(2);
  IngestOptions options;
  options.auto_insert_members = true;
  options.durability = &hook;
  const DimensionTable& products = bound_->dimension(1);
  int landed = 0;
  for (int req = 0; req < 2; ++req) {
    const std::string fig = "Fig-" + std::to_string(req);
    std::string text = "date,product,type,store,quantity,sales\n";
    for (int i = 0; i < 8193; ++i) {
      text += "1997-07-01," +
              (i % 2 == 0 ? fig + ",Fresh Fruit" : std::string("Apple,")) +
              ",SmartMart,1,0\n";
    }
    const int64_t rows_before = bound_->facts().NumRows();
    const uint64_t epoch_before = bound_->facts().epoch();
    const int64_t products_before = products.NumRows();
    const int32_t members_before = products.hierarchy().LevelCardinality(0);

    auto stats = Ingest(text, options);
    if (stats.ok()) {
      landed += 1;
      EXPECT_EQ(stats->rows_ingested, 8193u);
      EXPECT_EQ(stats->new_members, 1u);
      EXPECT_EQ(bound_->facts().NumRows(), rows_before + 8193);
      EXPECT_EQ(bound_->facts().epoch(), epoch_before + 1);
      EXPECT_EQ(products.NumRows(), products_before + 1);
    } else {
      EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
      EXPECT_EQ(bound_->facts().NumRows(), rows_before);
      EXPECT_EQ(bound_->facts().epoch(), epoch_before);
      EXPECT_EQ(products.NumRows(), products_before);
      EXPECT_EQ(products.hierarchy().LevelCardinality(0), members_before);
      EXPECT_FALSE(products.hierarchy().MemberIdOf(0, fig).ok());
    }
  }
  EXPECT_EQ(landed, 1);
  EXPECT_EQ(hook.calls(), 2) << "one write-ahead record per request";
}

TEST_F(IngestTest, SnapshotIsolationUnderConcurrentAppendAndQuery) {
  // Two appenders stream member-stable requests while readers aggregate
  // concurrently. Request atomicity means every observed total quantity is
  // a whole number of requests past the base; monotonicity per reader means
  // no reader ever sees a commit un-happen. Afterwards, the merged state
  // must be bit-identical to a serial replay into a fresh database.
  const auto base =
      CellMap(AggregateAll(*mini_.db, *bound_, {"product"}), "quantity");
  double base_total = 0;
  for (const auto& [coord, v] : base) base_total += v;

  constexpr int kAppenders = 2;
  constexpr int kRequests = 15;
  constexpr int kRequestRows = 8;
  const char* products[] = {"Apple", "Pear", "Lemon", "milk"};
  const char* stores[] = {"SmartMart", "PetitPrix"};
  auto request_text = [&](int a, int r) {
    std::string text = kSalesHeader;
    for (int i = r * kRequestRows; i < (r + 1) * kRequestRows; ++i) {
      text += std::string("1997-07-0") + (a == 0 ? "1" : "2") + "," +
              products[i % 4] + "," + stores[(a + i) % 2] + ",1,0\n";
    }
    return text;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      StarQueryEngine engine(mini_.db.get(), /*use_views=*/false,
                             /*threads=*/1);
      auto group_by =
          GroupBySet::FromLevelNames(bound_->schema(), {"product"});
      double prev_total = base_total;
      while (!stop.load(std::memory_order_relaxed)) {
        auto cube =
            engine.AggregateFactRange(*bound_, *group_by, 0,
                                      bound_->facts().NumRows());
        if (!cube.ok()) {
          violations.fetch_add(1);
          break;
        }
        double total = 0;
        auto cells = CellMap(*cube, "quantity");
        for (const auto& [coord, v] : cells) total += v;
        const double delta = total - base_total;
        // Atomic requests: the appended quantity is a multiple of the
        // request size (each appended row carries quantity 1).
        if (delta < 0 ||
            static_cast<int64_t>(delta) % kRequestRows != 0 ||
            total < prev_total) {
          violations.fetch_add(1);
        }
        prev_total = total;
      }
    });
  }

  std::vector<std::thread> appenders;
  std::vector<Status> append_status(kAppenders, Status::OK());
  for (int a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&, a] {
      Ingestor ingestor(mini_.db.get(), nullptr, {});
      for (int r = 0; r < kRequests && append_status[a].ok(); ++r) {
        auto stats = ingestor.IngestText("SALES", request_text(a, r));
        if (!stats.ok()) append_status[a] = stats.status();
      }
    });
  }
  for (auto& t : appenders) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  for (const Status& st : append_status) {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(violations.load(), 0);

  // Serial replay: the same rows into a fresh MiniDb, one appender.
  testutil::MiniDb serial = BuildMiniSales();
  Ingestor replay(serial.db.get(), nullptr, {});
  for (int a = 0; a < kAppenders; ++a) {
    for (int r = 0; r < kRequests; ++r) {
      ASSERT_TRUE(replay.IngestText("SALES", request_text(a, r)).ok());
    }
  }
  const BoundCube* serial_bound = *serial.db->Find("SALES");
  for (const char* measure : {"quantity", "sales"}) {
    EXPECT_EQ(
        CellMap(AggregateAll(*mini_.db, *bound_, {"product", "store"}),
                measure),
        CellMap(AggregateAll(*serial.db, *serial_bound,
                             {"product", "store"}),
                measure))
        << measure;
  }
}

TEST_F(IngestTest, ConcurrentAutoInsertInternsEachMemberOnce) {
  // Two appenders auto-insert overlapping new products (under a new type)
  // while readers aggregate. Every third request names a product of its
  // own and then a malformed line: it must land nothing, that product
  // included. Readers hold the schema lock shared, as sessions do.
  constexpr int kAppenders = 2;
  constexpr int kRequests = 24;
  constexpr int kRequestRows = 6;
  constexpr int kNewProducts = 10;
  const char* stores[] = {"SmartMart", "PetitPrix"};
  auto fails = [](int r) { return r % 3 == 2; };
  auto lost = [](int a, int r) {
    return "lost-" + std::to_string(a) + "-" + std::to_string(r);
  };
  auto request_text = [&](int a, int r) {
    std::string text = "date,product,type,store,quantity,sales\n";
    for (int i = 0; i < kRequestRows; ++i) {
      const std::string product =
          fails(r) && i == 0
              ? lost(a, r)
              : "new-" + std::to_string((r + i + a) % kNewProducts);
      text += std::string("1997-07-0") + (a == 0 ? "1" : "2") + "," +
              product + ",Exotic," + stores[(a + i) % 2] + ",1,0\n";
    }
    if (fails(r)) text += "oops\n";
    return text;
  };
  IngestOptions options;
  options.auto_insert_members = true;

  auto total_quantity = [&](StarQueryEngine& engine) -> Result<double> {
    std::shared_lock<std::shared_mutex> lock(mini_.db->schema_mutex());
    auto group_by = GroupBySet::FromLevelNames(bound_->schema(), {"type"});
    ASSESS_RETURN_NOT_OK(group_by.status());
    ASSESS_ASSIGN_OR_RETURN(
        Cube cube, engine.AggregateFactRange(*bound_, *group_by, 0,
                                             bound_->facts().NumRows()));
    ASSESS_ASSIGN_OR_RETURN(int q, cube.MeasureIndex("quantity"));
    double total = 0;
    for (int64_t row = 0; row < cube.NumRows(); ++row) {
      total += cube.MeasureAt(row, q);
    }
    return total;
  };
  StarQueryEngine base_engine(mini_.db.get(), /*use_views=*/false,
                              /*threads=*/1);
  const double base_total = *total_quantity(base_engine);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      StarQueryEngine engine(mini_.db.get(), /*use_views=*/false,
                             /*threads=*/1);
      double prev_total = base_total;
      while (!stop.load(std::memory_order_relaxed)) {
        Result<double> total = total_quantity(engine);
        if (!total.ok()) {
          violations.fetch_add(1);
          break;
        }
        // Whole requests only, and never one un-happening.
        const double delta = *total - base_total;
        if (delta < 0 ||
            static_cast<int64_t>(delta) % kRequestRows != 0 ||
            *total < prev_total) {
          violations.fetch_add(1);
        }
        prev_total = *total;
      }
    });
  }

  std::vector<std::vector<Status>> status(
      kAppenders, std::vector<Status>(kRequests, Status::OK()));
  std::vector<std::thread> appenders;
  for (int a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&, a] {
      Ingestor ingestor(mini_.db.get(), nullptr, options);
      for (int r = 0; r < kRequests; ++r) {
        status[a][r] =
            ingestor.IngestText("SALES", request_text(a, r)).status();
      }
    });
  }
  for (auto& t : appenders) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  for (int a = 0; a < kAppenders; ++a) {
    for (int r = 0; r < kRequests; ++r) {
      EXPECT_EQ(status[a][r].code(), fails(r) ? StatusCode::kInvalidArgument
                                              : StatusCode::kOk)
          << a << "/" << r << ": " << status[a][r].ToString();
    }
  }

  // Each new product has exactly one dimension row, under the new type; no
  // product of a failed request exists at all.
  const DimensionTable& products = bound_->dimension(1);
  const Hierarchy& hier = products.hierarchy();
  for (int k = 0; k < kNewProducts; ++k) {
    auto code = hier.MemberIdOf(0, "new-" + std::to_string(k));
    ASSERT_TRUE(code.ok()) << code.status().ToString();
    const std::vector<MemberId>& finest = products.level_column(0);
    EXPECT_EQ(std::count(finest.begin(), finest.end(), *code), 1) << k;
    EXPECT_EQ(hier.MemberName(1, hier.RollUpMember(0, *code, 1)), "Exotic");
  }
  for (int a = 0; a < kAppenders; ++a) {
    for (int r = 0; r < kRequests; ++r) {
      if (fails(r)) {
        EXPECT_FALSE(hier.MemberIdOf(0, lost(a, r)).ok());
      }
    }
  }

  // Serial replay: the same requests into a fresh MiniDb, one appender
  // after the other.
  testutil::MiniDb serial = BuildMiniSales();
  Ingestor replay(serial.db.get(), nullptr, options);
  for (int a = 0; a < kAppenders; ++a) {
    for (int r = 0; r < kRequests; ++r) {
      EXPECT_EQ(replay.IngestText("SALES", request_text(a, r)).ok(), !fails(r));
    }
  }
  const BoundCube* serial_bound = *serial.db->Find("SALES");
  EXPECT_EQ(serial_bound->dimension(1).NumRows(), products.NumRows());
  for (const char* measure : {"quantity", "sales"}) {
    EXPECT_EQ(
        CellMap(AggregateAll(*mini_.db, *bound_, {"product", "store"}),
                measure),
        CellMap(AggregateAll(*serial.db, *serial_bound,
                             {"product", "store"}),
                measure))
        << measure;
  }
}

// --- kIngest over the wire ------------------------------------------------

class WireIngestTest : public ::testing::Test {
 protected:
  WireIngestTest() : mini_(BuildMiniSales()) {}

  std::unique_ptr<AssessServer> StartServer(ServerOptions options = {}) {
    auto server = std::make_unique<AssessServer>(mini_.db.get(), options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  testutil::MiniDb mini_;
};

TEST_F(WireIngestTest, ReadOnlyServerRefusesIngest) {
  auto server = StartServer();
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto stats = client->Ingest(
      "SALES",
      "date,product,store,quantity,sales\n1997-07-01,Apple,SmartMart,1,0\n");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotSupported);
}

TEST_F(WireIngestTest, IngestRoundTripUpdatesServedResults) {
  ServerOptions options;
  options.mutable_db = mini_.db.get();
  auto server = StartServer(options);
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  const char* statement =
      "with SALES by product assess quantity labels quartiles";
  auto before = client->Query(statement);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  auto stats = client->Ingest(
      "SALES",
      "date,product,store,quantity,sales\n"
      "1997-07-01,Apple,SmartMart,25,0\n"
      "1997-07-02,Pear,PetitPrix,5,0\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_ingested, 2u);
  EXPECT_EQ(stats->batches, 1u);

  auto after = client->Query(statement);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(CellMap(after->cube, "quantity")[K("Apple")],
            CellMap(before->cube, "quantity")[K("Apple")] + 25);

  // Typed errors round-trip too (no auto-insert on this server).
  auto unknown = client->Ingest(
      "SALES",
      "date,product,store,quantity,sales\n"
      "1997-07-01,Durian,SmartMart,1,0\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // A client asking for auto-insert cannot widen a server that forbids it.
  auto widened = client->Ingest(
      "SALES",
      "date,product,type,store,quantity,sales\n"
      "1997-07-01,Durian,Fresh Fruit,SmartMart,1,0\n",
      IngestFormat::kCsv, /*auto_insert=*/true);
  ASSERT_FALSE(widened.ok());
  EXPECT_EQ(widened.status().code(), StatusCode::kNotFound);

  // v4 stats carry the ingest counters.
  auto server_stats = client->Stats();
  ASSERT_TRUE(server_stats.ok());
  EXPECT_EQ(server_stats->ingest_rows, 2u);
  EXPECT_EQ(server_stats->ingest_batches, 1u);
}

TEST_F(WireIngestTest, RetriedIngestReplaysItsReceiptInsteadOfAppending) {
  ServerOptions options;
  options.mutable_db = mini_.db.get();
  auto server = StartServer(options);

  auto fd = ConnectTo("127.0.0.1", server->port(), 2'000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  const std::string payload = EncodeIngestPayload(
      /*request_id=*/0xABCDEF01u, "SALES", IngestFormat::kCsv, 0,
      "date,product,store,quantity,sales\n"
      "1997-07-01,Apple,SmartMart,9,0\n");
  const BoundCube* bound = *mini_.db->Find("SALES");
  const int64_t rows_before = bound->facts().NumRows();

  Frame first_reply;
  ASSERT_TRUE(WriteFrame(*fd, FrameType::kIngest, payload).ok());
  ASSERT_TRUE(ReadFrame(*fd, kDefaultMaxFrameBytes, &first_reply).ok());
  ASSERT_EQ(first_reply.type, FrameType::kIngestReply);
  EXPECT_EQ(bound->facts().NumRows(), rows_before + 1);

  // Same request id again (a retry after a lost response): the stored
  // receipt comes back byte-identical and no second append happens.
  Frame second_reply;
  ASSERT_TRUE(WriteFrame(*fd, FrameType::kIngest, payload).ok());
  ASSERT_TRUE(ReadFrame(*fd, kDefaultMaxFrameBytes, &second_reply).ok());
  EXPECT_EQ(second_reply.type, FrameType::kIngestReply);
  EXPECT_EQ(second_reply.payload, first_reply.payload);
  EXPECT_EQ(bound->facts().NumRows(), rows_before + 1);

  auto stats = IngestStats::Deserialize(first_reply.payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_ingested, 1u);
  CloseSocket(*fd);
}

// An ingest that commits after its request deadline still answers with its
// receipt: a kTimeout would make the client retry an append that happened.
TEST_F(WireIngestTest, IngestCommittedPastItsDeadlineAnswersWithItsReceipt) {
  ServerOptions options;
  options.mutable_db = mini_.db.get();
  options.request_timeout_ms = 100;
  std::atomic<bool> slow_once{true};
  options.pre_execute_hook = [&slow_once] {
    if (slow_once.exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  };
  auto server = StartServer(options);
  ClientOptions client_options;
  client_options.max_retries = 3;
  client_options.seed = 31;
  auto client =
      AssessClient::Connect("127.0.0.1", server->port(), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const BoundCube* bound = *mini_.db->Find("SALES");
  const int64_t rows_before = bound->facts().NumRows();
  auto stats = client->Ingest(
      "SALES",
      "date,product,store,quantity,sales\n"
      "1997-07-01,Apple,SmartMart,4,0\n"
      "1997-07-02,Pear,PetitPrix,6,0\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_ingested, 2u);
  EXPECT_EQ(bound->facts().NumRows(), rows_before + 2)
      << "the rows of one batch must land exactly once";
  EXPECT_EQ(server->Snapshot().ingest_batches, 1u);
}

// A retry that arrives while its first attempt still executes (the client's
// read deadline expired first) is told kUnavailable instead of appending
// again; a later retry replays the first attempt's receipt.
TEST_F(WireIngestTest, RetryDuringFirstAttemptDoesNotAppendAgain) {
  ServerOptions options;
  options.mutable_db = mini_.db.get();
  options.worker_threads = 4;
  std::atomic<bool> slow_once{true};
  options.pre_execute_hook = [&slow_once] {
    if (slow_once.exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  };
  auto server = StartServer(options);
  ClientOptions client_options;
  client_options.read_timeout_ms = 100;
  client_options.max_retries = 10;
  client_options.seed = 32;
  auto client =
      AssessClient::Connect("127.0.0.1", server->port(), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const BoundCube* bound = *mini_.db->Find("SALES");
  const int64_t rows_before = bound->facts().NumRows();
  auto stats = client->Ingest(
      "SALES",
      "date,product,store,quantity,sales\n"
      "1997-07-01,Apple,SmartMart,8,0\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_ingested, 1u);
  // Drain: whichever attempt answered, every attempt has finished now.
  server->Stop();
  EXPECT_EQ(bound->facts().NumRows(), rows_before + 1)
      << "a retry racing its first attempt must not append the rows again";
  EXPECT_EQ(server->Snapshot().ingest_batches, 1u);
}

// A file whose last line is bad lands nothing; once fixed and resent (a new
// request, so a new id), every row lands exactly once.
TEST_F(WireIngestTest, FixedFileResentUnderANewIdLandsOnce) {
  ServerOptions options;
  options.mutable_db = mini_.db.get();
  auto server = StartServer(options);
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const BoundCube* bound = *mini_.db->Find("SALES");
  const int64_t rows_before = bound->facts().NumRows();

  const std::string rows = StableRows(8192);
  auto bad =
      client->Ingest("SALES", rows + "1997-07-01,Apple,SmartMart,ten,0\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bound->facts().NumRows(), rows_before);

  auto fixed =
      client->Ingest("SALES", rows + "1997-07-01,Apple,SmartMart,10,0\n");
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  EXPECT_EQ(fixed->rows_ingested, 8193u);
  EXPECT_EQ(fixed->batches, 1u);
  EXPECT_EQ(bound->facts().NumRows(), rows_before + 8193);
}

TEST_F(WireIngestTest, MalformedIngestFramesAreTypedErrors) {
  ServerOptions options;
  options.mutable_db = mini_.db.get();
  auto server = StartServer(options);
  auto fd = ConnectTo("127.0.0.1", server->port(), 2'000);
  ASSERT_TRUE(fd.ok());

  // Truncated header: too short for request id + cube length.
  Frame reply;
  ASSERT_TRUE(WriteFrame(*fd, FrameType::kIngest, "short").ok());
  ASSERT_TRUE(ReadFrame(*fd, kDefaultMaxFrameBytes, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  CloseSocket(*fd);

  // Unknown format byte.
  uint64_t id = 0;
  std::string_view cube, text;
  IngestFormat format = IngestFormat::kCsv;
  uint8_t flags = 0;
  std::string bad = EncodeIngestPayload(1, "SALES", IngestFormat::kCsv, 0, "");
  bad[10 + 5] = 0x7F;  // format byte, after 8(id) + 2(len) + 5("SALES")
  Status decoded = DecodeIngestPayload(bad, &id, &cube, &format, &flags,
                                       &text);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);

  // Codec round trip for both formats and the flag byte.
  std::string good = EncodeIngestPayload(42, "SALES", IngestFormat::kJsonl,
                                         kIngestFlagAutoInsert, "{}\n");
  ASSERT_TRUE(
      DecodeIngestPayload(good, &id, &cube, &format, &flags, &text).ok());
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(cube, "SALES");
  EXPECT_EQ(format, IngestFormat::kJsonl);
  EXPECT_EQ(flags, kIngestFlagAutoInsert);
  EXPECT_EQ(text, "{}\n");
}

TEST(IngestStatsTest, SerializeRoundTripsAndV4StatsDecode) {
  IngestStats stats;
  stats.rows_ingested = 1000;
  stats.rows_rejected = 3;
  stats.batches = 17;
  stats.new_members = 5;
  stats.epoch = 42;
  stats.mv_incremental_updates = 34;
  stats.mv_full_rebuilds = 1;
  stats.cache_invalidations = 9;
  stats.repacks = 2;
  auto decoded = IngestStats::Deserialize(stats.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->rows_ingested, 1000u);
  EXPECT_EQ(decoded->rows_rejected, 3u);
  EXPECT_EQ(decoded->batches, 17u);
  EXPECT_EQ(decoded->new_members, 5u);
  EXPECT_EQ(decoded->epoch, 42u);
  EXPECT_EQ(decoded->mv_incremental_updates, 34u);
  EXPECT_EQ(decoded->mv_full_rebuilds, 1u);
  EXPECT_EQ(decoded->cache_invalidations, 9u);
  EXPECT_EQ(decoded->repacks, 2u);
  EXPECT_FALSE(IngestStats::Deserialize("truncated").ok());

  ServerStats server_stats;
  server_stats.ingest_rows = 7;
  server_stats.ingest_batches = 2;
  server_stats.cache_epoch_invalidations = 11;
  auto round = ServerStats::Deserialize(server_stats.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->ingest_rows, 7u);
  EXPECT_EQ(round->ingest_batches, 2u);
  EXPECT_EQ(round->cache_epoch_invalidations, 11u);
}

}  // namespace
}  // namespace assess
