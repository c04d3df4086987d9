// Equivalence of the engine's partitioned parallel aggregation with the
// serial path: same cells, same aggregates, for every operator and for all
// three push-down entry points.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "assess/session.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "ssb/ssb_generator.h"
#include "ssb/workload.h"
#include "storage/star_query_engine.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;

// Parallel partial sums reduce in a different order than the serial scan,
// so aggregates may differ in the last ulp; compare with a relative bound.
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

// Coordinate -> raw bit pattern of one measure, for *bit-identical*
// comparison: the morsel-order merge promises the same output bits at every
// thread count, stronger than ExpectCellsNear's ulp tolerance.
std::map<std::vector<std::string>, uint64_t> BitMap(
    const Cube& cube, const std::string& measure) {
  std::map<std::vector<std::string>, uint64_t> out;
  for (const auto& [coord, value] : CellMap(cube, measure)) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    out[coord] = bits;
  }
  return out;
}

class ParallelEngineTest : public ::testing::Test {
 protected:
  ParallelEngineTest() {
    SsbConfig config;
    config.scale_factor = 0.05;  // 300k facts: above the parallel threshold
    db_ = std::move(BuildSsbDatabase(config)).value();
    ssb_ = *db_->Find("SSB");
  }

  CubeQuery Query(const std::vector<std::string>& by,
                  std::vector<Predicate> preds,
                  const std::vector<std::string>& measures) {
    auto q = CubeQuery::Make(ssb_->schema(), "SSB", by, std::move(preds),
                             measures);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::unique_ptr<StarDatabase> db_;
  const BoundCube* ssb_ = nullptr;
};

TEST_F(ParallelEngineTest, MatchesSerialAcrossGroupBys) {
  StarQueryEngine serial(db_.get(), true, 1);
  StarQueryEngine parallel(db_.get(), true, 4);
  const std::vector<std::vector<std::string>> group_bys = {
      {"part"}, {"c_nation", "s_region"}, {"month", "mfgr"}, {}};
  for (const auto& by : group_bys) {
    CubeQuery q = Query(by, {}, {"revenue", "quantity"});
    Cube expected = *serial.Execute(q);
    Cube actual = *parallel.Execute(q);
    ExpectCellsNear(expected, actual, "revenue");
    ExpectCellsNear(expected, actual, "quantity");
  }
}

TEST_F(ParallelEngineTest, MatchesSerialWithPredicates) {
  StarQueryEngine serial(db_.get(), true, 1);
  StarQueryEngine parallel(db_.get(), true, 3);
  CubeQuery q = Query({"customer"},
                      {{3, 3, PredicateOp::kEquals, {"ASIA"}},
                       {0, 2, PredicateOp::kIn, {"1997", "1998"}}},
                      {"revenue"});
  Cube expected = *serial.Execute(q);
  Cube actual = *parallel.Execute(q);
  EXPECT_GT(expected.NumRows(), 0);
  ExpectCellsNear(expected, actual, "revenue");
}

TEST_F(ParallelEngineTest, AllAggregationOperatorsMerge) {
  // Build a cube whose measures exercise every operator, large enough to
  // trigger the parallel path.
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kGroups = 100;
  DimensionTable dim("k", hier);
  for (int g = 0; g < kGroups; ++g) {
    dim.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  schema->AddMeasure({"a", AggOp::kAvg});
  schema->AddMeasure({"lo", AggOp::kMin});
  schema->AddMeasure({"hi", AggOp::kMax});
  schema->AddMeasure({"n", AggOp::kCount});
  FactTable facts("T", 1, 5);
  Rng rng(3);
  constexpr int64_t kRows = 200000;
  facts.Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    double v = static_cast<double>(rng.Uniform(1000));
    facts.AddRow({static_cast<int32_t>(rng.Uniform(kGroups))},
                 {v, v, v, v, v});
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine serial(&db, true, 1);
  StarQueryEngine parallel(&db, true, 7);
  CubeQuery q = *CubeQuery::Make(*schema, "T", {"k"}, {},
                                 {"s", "a", "lo", "hi", "n"});
  Cube expected = *serial.Execute(q);
  Cube actual = *parallel.Execute(q);
  ASSERT_EQ(expected.NumRows(), kGroups);
  for (const char* m : {"s", "a", "lo", "hi", "n"}) {
    auto lhs = CellMap(expected, m);
    auto rhs = CellMap(actual, m);
    ASSERT_EQ(lhs.size(), rhs.size()) << m;
    for (const auto& [coord, value] : lhs) {
      EXPECT_NEAR(value, rhs[coord], 1e-9 * (1.0 + std::fabs(value))) << m;
    }
  }
}

TEST_F(ParallelEngineTest, SmallScansStaySerial) {
  // Below the threshold the parallel engine must not spawn (observable only
  // through identical results, but this pins the configuration path).
  SsbConfig config;
  config.scale_factor = 0.002;
  auto small = std::move(BuildSsbDatabase(config)).value();
  StarQueryEngine serial(small.get(), true, 1);
  StarQueryEngine parallel(small.get(), true, 8);
  const BoundCube* cube = *small->Find("SSB");
  CubeQuery q = *CubeQuery::Make(cube->schema(), "SSB", {"brand"}, {},
                                 {"revenue"});
  // Below the threshold both run serially: bit-exact equality holds.
  EXPECT_EQ(CellMap(*serial.Execute(q), "revenue"),
            CellMap(*parallel.Execute(q), "revenue"));
}

TEST_F(ParallelEngineTest, FullAssessPipelineUnderParallelEngine) {
  // The executor wires the engine internally; equivalence at statement
  // level across thread counts.
  AssessSession session(db_.get());
  auto expected = session.Query(SsbWorkload()[2].text);
  ASSERT_TRUE(expected.ok());
  // A second engine with threads directly:
  StarQueryEngine parallel(db_.get(), true, 4);
  auto analyzed = session.Prepare(SsbWorkload()[2].text);
  ASSERT_TRUE(analyzed.ok());
  Cube target = *parallel.Execute(analyzed->target);
  Cube benchmark = *parallel.Execute(analyzed->benchmark);
  EXPECT_GT(target.NumRows(), 0);
  EXPECT_GT(benchmark.NumRows(), 0);
  EXPECT_EQ(target.NumRows() + benchmark.NumRows(),
            [&] {
              StarQueryEngine serial(db_.get(), true, 1);
              return serial.Execute(analyzed->target)->NumRows() +
                     serial.Execute(analyzed->benchmark)->NumRows();
            }());
}

TEST_F(ParallelEngineTest, BitIdenticalAcrossThreadCountsAndRuns) {
  // The determinism contract: every output bit is a function of the data
  // alone. threads=1, threads=2 and threads=8 — and repeated runs of each —
  // must agree exactly, not just within float tolerance, because partials
  // are merged in morsel index order regardless of which thread filled them.
  const std::vector<std::vector<std::string>> group_bys = {
      {"part"}, {"c_nation", "s_region"}, {}};
  for (const auto& by : group_bys) {
    CubeQuery unpredicated = Query(by, {}, {"revenue", "quantity"});
    CubeQuery predicated =
        Query(by, {{3, 3, PredicateOp::kEquals, {"ASIA"}}}, {"revenue"});
    StarQueryEngine baseline(db_.get(), false, 1);
    auto expected_rev = BitMap(*baseline.Execute(unpredicated), "revenue");
    auto expected_qty = BitMap(*baseline.Execute(unpredicated), "quantity");
    auto expected_pred = BitMap(*baseline.Execute(predicated), "revenue");
    for (int threads : {1, 2, 8}) {
      StarQueryEngine engine(db_.get(), false, threads);
      for (int run = 0; run < 2; ++run) {
        Cube cube = *engine.Execute(unpredicated);
        EXPECT_EQ(expected_rev, BitMap(cube, "revenue"))
            << "threads=" << threads << " run=" << run;
        EXPECT_EQ(expected_qty, BitMap(cube, "quantity"))
            << "threads=" << threads << " run=" << run;
        EXPECT_EQ(expected_pred, BitMap(*engine.Execute(predicated), "revenue"))
            << "threads=" << threads << " run=" << run;
      }
    }
  }
}

TEST_F(ParallelEngineTest, FactRangeSpansMorselsFromAnUnalignedStart) {
  // A delta merge is a scan over a row range whose morsels are anchored at
  // the range start. Start mid-morsel and span several morsels: the result
  // must be bit-identical at 1 vs 4 threads, and its integer-valued
  // quantity must equal a naive row loop over exactly that range.
  const int64_t from = kMorselRows / 2 + 7;
  const int64_t to = 5 * kMorselRows / 2;
  ASSERT_LE(to, ssb_->facts().NumRows());
  const CubeSchema& schema = ssb_->schema();
  const int quantity = *schema.MeasureIndex("quantity");
  StarQueryEngine serial(db_.get(), false, 1);
  StarQueryEngine parallel(db_.get(), false, 4);
  const std::vector<std::vector<std::string>> group_bys = {
      {"c_nation", "s_region"}, {"part"}, {}};
  for (const auto& by : group_bys) {
    GroupBySet group_by = *GroupBySet::FromLevelNames(schema, by);
    Cube expected = *serial.AggregateFactRange(*ssb_, group_by, from, to);
    Cube actual = *parallel.AggregateFactRange(*ssb_, group_by, from, to);
    for (int m = 0; m < schema.measure_count(); ++m) {
      const std::string& name = schema.measure(m).name;
      EXPECT_EQ(BitMap(expected, name), BitMap(actual, name)) << name;
    }

    std::map<std::vector<std::string>, double> naive;
    for (int64_t r = from; r < to; ++r) {
      std::vector<std::string> coord;
      for (int h = 0; h < schema.hierarchy_count(); ++h) {
        if (!group_by.HasHierarchy(h)) continue;
        const int level = group_by.LevelOf(h);
        const int32_t code = ssb_->facts().fk_column(h)[r];
        const MemberId member = ssb_->dimension(h).level_column(level)[code];
        coord.push_back(schema.hierarchy(h).MemberName(level, member));
      }
      naive[coord] += ssb_->facts().measure_column(quantity)[r];
    }
    EXPECT_EQ(CellMap(expected, "quantity"), naive);
  }
}

TEST_F(ParallelEngineTest, RowRangesSkipMorselsOnClusteredData) {
  // A table clustered on the dimension key — code = row / kMorselRows — is
  // the best case for the row-range index: an equality predicate touches
  // exactly one morsel and every other one is skipped without a scan.
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kChunks = 4;
  DimensionTable dim("k", hier);
  for (int g = 0; g < kChunks; ++g) {
    dim.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  FactTable facts("T", 1, 1);
  const int64_t rows = kChunks * kMorselRows;
  facts.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    facts.AddRow({static_cast<int32_t>(i / kMorselRows)}, {1.0});
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine engine(&db, false, 2);
  CubeQuery q = *CubeQuery::Make(*schema, "T", {},
                                 {{0, 0, PredicateOp::kEquals, {"g2"}}},
                                 {"s"});
  Cube cube = *engine.Execute(q);
  ASSERT_EQ(cube.NumRows(), 1);
  EXPECT_EQ(CellMap(cube, "s")[{}], static_cast<double>(kMorselRows));
  ScanStats stats = engine.scan_stats();
  EXPECT_EQ(stats.morsels_scanned, 1u);
  EXPECT_EQ(stats.morsels_skipped, static_cast<uint64_t>(kChunks - 1));
  EXPECT_EQ(stats.rows_visited, static_cast<uint64_t>(kMorselRows));
  EXPECT_EQ(stats.rows_passed, static_cast<uint64_t>(kMorselRows));

  // An unpredicated scan of the same table must not skip anything.
  CubeQuery all = *CubeQuery::Make(*schema, "T", {"k"}, {}, {"s"});
  Cube full = *engine.Execute(all);
  EXPECT_EQ(full.NumRows(), kChunks);
  stats = engine.scan_stats();
  EXPECT_EQ(stats.morsels_scanned, 1u + kChunks);
  EXPECT_EQ(stats.morsels_skipped, static_cast<uint64_t>(kChunks - 1));
  const auto all_rows = static_cast<uint64_t>((1 + kChunks) * kMorselRows);
  EXPECT_EQ(stats.rows_visited, all_rows);
  EXPECT_EQ(stats.rows_passed, all_rows);
}

TEST_F(ParallelEngineTest, ScansRaceAppendsThatGrowThenFreezeThePrefix) {
  // Readers scan date-style slices while a writer appends batches that
  // first extend the clustered prefix (codes rising from 32) and then end
  // it (codes starting over at 32). Every snapshot must see whole batches
  // and the index of exactly its own rows; under TSan this is the race
  // check of the index's publication.
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kCodes = 64;
  DimensionTable dim("k", hier);
  for (int g = 0; g < kCodes; ++g) {
    dim.AddRow({hier->AddMember(0, (g < 10 ? "g0" : "g") + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  constexpr int64_t kBase = 2 * kMorselRows;
  std::vector<std::vector<int32_t>> fks(1);
  std::vector<std::vector<double>> measures(1);
  for (int64_t i = 0; i < kBase; ++i) {
    fks[0].push_back(static_cast<int32_t>(i * 32 / kBase));
    measures[0].push_back(1.0);
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   FactTable::FromColumns("T", fks, measures)))
                  .ok());
  FactTable& facts = (*db.FindMutable("T"))->mutable_facts();

  constexpr int kBatches = 40;
  constexpr int64_t kBatchRows = 1000;
  const CubeQuery base = *CubeQuery::Make(
      *schema, "T", {}, {{0, 0, PredicateOp::kBetween, {"g00", "g31"}}},
      {"s"});
  const CubeQuery appended = *CubeQuery::Make(
      *schema, "T", {}, {{0, 0, PredicateOp::kBetween, {"g32", "g63"}}},
      {"s"});
  const CubeQuery one_code = *CubeQuery::Make(
      *schema, "T", {}, {{0, 0, PredicateOp::kEquals, {"g33"}}}, {"s"});
  auto sum = [](const Result<Cube>& cube) {
    if (!cube.ok()) return -1.0;
    auto cells = CellMap(*cube, "s");
    return cells.empty() ? 0.0 : cells.begin()->second;
  };

  auto pool = std::make_shared<TaskPool>(2);
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  constexpr int kReaders = 3;
  std::vector<int> bad(kReaders, 0);
  std::vector<int> runs(kReaders, 0);
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      EngineOptions options;
      options.use_views = false;
      options.use_result_cache = false;
      options.threads = 2;
      options.pool = pool;
      StarQueryEngine engine(&db, options);
      started.fetch_add(1);
      double seen = 0.0;
      do {
        if (sum(engine.Execute(base)) != static_cast<double>(kBase)) ++bad[c];
        const double tail = sum(engine.Execute(appended));
        if (tail < seen || std::fmod(tail, kBatchRows) != 0.0) ++bad[c];
        seen = tail;
        const double g33 = sum(engine.Execute(one_code));
        if (g33 != 0.0 && g33 != kBatchRows && g33 != 2 * kBatchRows) {
          ++bad[c];
        }
        ++runs[c];
      } while (!done.load());
    });
  }
  std::vector<std::vector<int32_t>> batch_fks(1);
  std::vector<std::vector<double>> batch_measures(
      1, std::vector<double>(kBatchRows, 1.0));
  while (started.load() < kReaders) std::this_thread::yield();
  for (int b = 0; b < kBatches; ++b) {
    batch_fks[0].assign(kBatchRows, 32 + b % 32);
    facts.AppendBatch(batch_fks, batch_measures);
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  for (int c = 0; c < kReaders; ++c) {
    EXPECT_EQ(bad[c], 0) << "reader " << c;
    EXPECT_GT(runs[c], 0) << "reader " << c;
  }
  EXPECT_EQ((*facts.Snapshot().clustered)[0].rows, kBase + 32 * kBatchRows);

  StarQueryEngine engine(&db, false, 1);
  EXPECT_EQ(sum(engine.Execute(appended)),
            static_cast<double>(kBatches * kBatchRows));
  EXPECT_EQ(sum(engine.Execute(one_code)), static_cast<double>(2 * kBatchRows));
}

TEST_F(ParallelEngineTest, AssessResultBitIdenticalAcrossSessionThreads) {
  // Statement-level determinism: whole AssessResults — cells, measures,
  // labels, chosen plan, pushed SQL — agree bit-for-bit across sessions
  // configured at different thread counts, and across repeated runs.
  const std::string statement = SsbWorkload()[2].text;
  ExecutorOptions serial_options;
  serial_options.threads = 1;
  AssessSession serial(db_.get(), serial_options);
  auto expected = serial.Query(statement);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (int threads : {2, 8}) {
    ExecutorOptions options;
    options.threads = threads;
    AssessSession session(db_.get(), options);
    for (int run = 0; run < 2; ++run) {
      auto actual = session.Query(statement);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(expected->plan, actual->plan) << threads;
      EXPECT_EQ(expected->sql, actual->sql) << threads;
      const Cube& lhs = expected->cube;
      const Cube& rhs = actual->cube;
      ASSERT_EQ(lhs.NumRows(), rhs.NumRows()) << threads;
      ASSERT_EQ(lhs.measure_count(), rhs.measure_count()) << threads;
      for (int l = 0; l < lhs.level_count(); ++l) {
        for (int64_t r = 0; r < lhs.NumRows(); ++r) {
          ASSERT_EQ(lhs.CoordName(r, l), rhs.CoordName(r, l)) << threads;
        }
      }
      for (int m = 0; m < lhs.measure_count(); ++m) {
        for (int64_t r = 0; r < lhs.NumRows(); ++r) {
          double x = lhs.MeasureAt(r, m), y = rhs.MeasureAt(r, m);
          uint64_t xb = 0, yb = 0;
          std::memcpy(&xb, &x, sizeof(x));
          std::memcpy(&yb, &y, sizeof(y));
          ASSERT_EQ(xb, yb)
              << "threads=" << threads << " row " << r << " measure " << m;
        }
      }
      EXPECT_EQ(lhs.labels(), rhs.labels()) << threads;
    }
  }
}

TEST_F(ParallelEngineTest, ConcurrentQueriesShareOnePool) {
  // The assessd deployment in miniature: many sessions, one pool. Every
  // concurrent query must come back bit-identical to the serial baseline
  // (this test is the TSan workout for the pool's job multiplexing).
  auto pool = std::make_shared<TaskPool>(4);
  CubeQuery q = Query({"c_nation", "s_region"},
                      {{0, 2, PredicateOp::kIn, {"1997", "1998"}}},
                      {"revenue"});
  StarQueryEngine baseline(db_.get(), false, 1);
  const auto expected = BitMap(*baseline.Execute(q), "revenue");

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, -1);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      EngineOptions options;
      options.use_views = false;
      options.use_result_cache = false;
      options.threads = 3;
      options.pool = pool;
      StarQueryEngine engine(db_.get(), options);
      int bad = 0;
      for (int run = 0; run < 3; ++run) {
        auto cube = engine.Execute(q);
        if (!cube.ok() || BitMap(*cube, "revenue") != expected) ++bad;
      }
      mismatches[c] = bad;
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
  EXPECT_EQ(pool->stats().queue_depth, 0u);
}

}  // namespace
}  // namespace assess
