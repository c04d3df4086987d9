#include "storage/star_query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/simd.h"
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

TEST(EngineRowRangeTest, DateRangeOnClusteredSsbSkipsMorsels) {
  // The SSB bulk load clusters facts by date, so a 45-day slice lands in at
  // most two adjacent morsels, the row-range index shows every other one
  // empty, and the scan visits exactly the slice's rows.
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

  const DimensionTable& dates = ssb.dimension(0);
  const std::vector<int32_t>& date_fk = ssb.facts().fk_column(0);
  uint64_t slice_rows = 0;
  for (int32_t code : date_fk) {
    const std::string& day =
        ssb.schema().hierarchy(0).MemberName(0, dates.CodeAt(code, 0));
    if (day >= "1995-03-10" && day <= "1995-04-23") ++slice_rows;
  }
  ASSERT_GT(slice_rows, 0u);
  EXPECT_EQ(stats.rows_visited, slice_rows);
  EXPECT_EQ(stats.rows_passed, slice_rows);
}

// --- Row-range index: clustered vs. unclustered facts ---------------------

// A date-sliced star: Date (day → month → year over two 360-day years),
// Store (store → region) and a 400-member Item, whose product with day
// overflows the dense kernel so the generic hash kernel runs too.
// Measures cover every operator; `integer_values` keeps every sum exact, so
// no result depends on the order its rows are added in.
struct DatedRow {
  int32_t day = 0;
  int32_t store = 0;
  int32_t item = 0;
  double value = 0.0;
};

constexpr int kDatedDays = 720;
constexpr int kDatedStores = 7;
constexpr int kDatedItems = 400;

std::string Pad2(int v) { return (v < 10 ? "0" : "") + std::to_string(v); }

// Member name of day code `day`: "Y<year>-<month>-<day>", sorting by date.
std::string DayName(int day) {
  return "Y" + std::to_string(day / 360) + "-" + Pad2(day % 360 / 30 + 1) +
         "-" + Pad2(day % 30 + 1);
}

std::vector<DatedRow> DatedRows(uint64_t seed, int64_t rows,
                                bool integer_values) {
  Rng rng(seed);
  std::vector<DatedRow> out(static_cast<size_t>(rows));
  for (DatedRow& row : out) {
    row.day = static_cast<int32_t>(rng.Uniform(kDatedDays));
    row.store = static_cast<int32_t>(rng.Uniform(kDatedStores));
    row.item = static_cast<int32_t>(rng.Uniform(kDatedItems));
    row.value = integer_values
                    ? static_cast<double>(rng.UniformRange(-50, 50))
                    : rng.NextDouble() * 1000.0 - 500.0;
  }
  return out;
}

// Stable-sorts `rows` by day: the date column becomes one clustered prefix.
std::vector<DatedRow> Clustered(std::vector<DatedRow> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const DatedRow& a, const DatedRow& b) {
                     return a.day < b.day;
                   });
  return rows;
}

// Shuffles `rows`, then puts a latest-day row first and an earliest-day row
// second, so the date column's clustered prefix is that one first row.
std::vector<DatedRow> Shuffled(std::vector<DatedRow> rows, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.Uniform(i + 1)]);
  }
  auto by_day = [](const DatedRow& a, const DatedRow& b) {
    return a.day < b.day;
  };
  std::iter_swap(rows.begin(),
                 std::max_element(rows.begin(), rows.end(), by_day));
  std::iter_swap(rows.begin() + 1,
                 std::min_element(rows.begin() + 1, rows.end(), by_day));
  return rows;
}

struct DatedStar {
  std::unique_ptr<StarDatabase> db;
  std::shared_ptr<CubeSchema> schema;
};

// Builds cube "D" over `rows` (FromColumns), then appends `tail` as one
// batch when it is non-empty.
DatedStar BuildDatedStar(const std::vector<DatedRow>& rows,
                         const std::vector<DatedRow>& tail = {}) {
  auto date = std::make_shared<Hierarchy>("Date");
  date->set_temporal(true);
  date->AddLevel("day");
  date->AddLevel("month");
  date->AddLevel("year");
  DimensionTable dates("date", date);
  for (int day = 0; day < kDatedDays; ++day) {
    const std::string name = DayName(day);
    const MemberId year = date->AddMember(2, name.substr(0, 2));
    const MemberId month = date->AddMember(1, name.substr(0, 5));
    const MemberId id = date->AddMember(0, name);
    date->SetParent(1, month, year);
    date->SetParent(0, id, month);
    dates.AddRow({id, month, year});
  }
  auto store = std::make_shared<Hierarchy>("Store");
  store->AddLevel("store");
  store->AddLevel("region");
  DimensionTable stores("store", store);
  for (int s = 0; s < kDatedStores; ++s) {
    const MemberId region = store->AddMember(1, "R" + std::to_string(s % 2));
    const MemberId id = store->AddMember(0, "S" + std::to_string(s));
    store->SetParent(0, id, region);
    stores.AddRow({id, region});
  }
  auto item = std::make_shared<Hierarchy>("Item");
  item->AddLevel("item");
  DimensionTable items("item", item);
  for (int i = 0; i < kDatedItems; ++i) {
    items.AddRow({item->AddMember(0, "I" + std::to_string(i))});
  }
  DatedStar star;
  star.schema = std::make_shared<CubeSchema>("D");
  star.schema->AddHierarchy(date);
  star.schema->AddHierarchy(store);
  star.schema->AddHierarchy(item);
  star.schema->AddMeasure({"s", AggOp::kSum});
  star.schema->AddMeasure({"a", AggOp::kAvg});
  star.schema->AddMeasure({"lo", AggOp::kMin});
  star.schema->AddMeasure({"hi", AggOp::kMax});
  star.schema->AddMeasure({"n", AggOp::kCount});
  auto columns = [](const std::vector<DatedRow>& part,
                    std::vector<std::vector<int32_t>>* fks,
                    std::vector<std::vector<double>>* measures) {
    fks->assign(3, {});
    measures->assign(5, {});
    for (const DatedRow& row : part) {
      (*fks)[0].push_back(row.day);
      (*fks)[1].push_back(row.store);
      (*fks)[2].push_back(row.item);
      for (auto& m : *measures) m.push_back(row.value);
    }
  };
  std::vector<std::vector<int32_t>> fks;
  std::vector<std::vector<double>> measures;
  columns(rows, &fks, &measures);
  FactTable facts = FactTable::FromColumns("D", fks, measures);
  if (!tail.empty()) {
    columns(tail, &fks, &measures);
    facts.AppendBatch(fks, measures);
  }
  star.db = std::make_unique<StarDatabase>();
  EXPECT_TRUE(star.db
                  ->Register("D", std::make_unique<BoundCube>(
                                      star.schema,
                                      std::vector<DimensionTable>{
                                          dates, stores, items},
                                      std::move(facts)))
                  .ok());
  return star;
}

// A cube's cells of `measure` keyed by their member ids (every level of
// the dated star has fewer than 1024 members), sorted: a cheap exact
// comparison of cubes whose hierarchies intern members in the same order.
std::vector<std::pair<uint64_t, double>> SortedCells(
    const Cube& cube, const std::string& measure) {
  const std::vector<double>& values =
      cube.measure_column(*cube.MeasureIndex(measure));
  std::vector<std::pair<uint64_t, double>> cells;
  cells.reserve(values.size());
  for (int64_t r = 0; r < cube.NumRows(); ++r) {
    uint64_t key = 0;
    for (int l = 0; l < cube.level_count(); ++l) {
      key = key * 1024 + static_cast<uint64_t>(cube.coord_column(l)[r]);
    }
    cells.emplace_back(key, values[r]);
  }
  std::sort(cells.begin(), cells.end());
  return cells;
}

int64_t DatePrefixRows(const DatedStar& star) {
  return (*(*star.db->Find("D"))->facts().Snapshot().clustered)[0].rows;
}

class RowRangeTest : public ::testing::Test {
 protected:
  ~RowRangeTest() override { ForceSimdLevelForTest(-1); }

  CubeQuery Query(const DatedStar& star, const std::vector<std::string>& by,
                  std::vector<Predicate> preds) {
    auto q = CubeQuery::Make(*star.schema, "D", by, std::move(preds),
                             {"s", "a", "lo", "hi", "n"});
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  // Every case, group-by and engine configuration must give the clustered
  // table the cells of the shuffled one: solo at 1 and 4 threads on every
  // compiled-in SIMD tier, and as an MQO shared scan (the compacted path).
  void ExpectSameCells(const DatedStar& clustered, const DatedStar& shuffled,
                       const std::vector<Predicate>& preds,
                       const std::string& label) {
    const std::vector<std::vector<std::string>> group_bys = {
        {"month", "region"}, {"day", "item"}, {}};
    const std::vector<std::string> measures = {"s", "a", "lo", "hi", "n"};
    std::vector<CubeQuery> batch;
    std::vector<Cube> expected;
    StarQueryEngine reference(shuffled.db.get(), false, 1);
    for (const auto& by : group_bys) {
      batch.push_back(Query(clustered, by, preds));
      expected.push_back(*reference.Execute(Query(shuffled, by, preds)));
    }
    auto same = [&](const Cube& want, const Cube& got,
                    const std::string& where) {
      for (const std::string& m : measures) {
        EXPECT_EQ(SortedCells(want, m), SortedCells(got, m))
            << label << " " << where << " measure " << m;
      }
    };
    const int best = static_cast<int>(DetectCpuSimdLevel());
    for (int level = 0; level <= best; ++level) {
      ForceSimdLevelForTest(level);
      for (int threads : {1, 4}) {
        StarQueryEngine engine(clustered.db.get(), false, threads);
        const std::string where = "tier " + std::to_string(level) +
                                  " threads " + std::to_string(threads);
        for (size_t i = 0; i < batch.size(); ++i) {
          auto got = engine.Execute(batch[i]);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          same(expected[i], *got, where + " solo " + std::to_string(i));
        }
        auto shared = engine.ExecuteSharedScan(batch, 0);
        ASSERT_TRUE(shared.ok()) << shared.status().ToString();
        for (size_t i = 0; i < batch.size(); ++i) {
          same(expected[i], (*shared)[i],
               where + " shared " + std::to_string(i));
        }
      }
    }
  }
};

TEST_F(RowRangeTest, ClusteredMatchesShuffledOnEverySlice) {
  const std::vector<DatedRow> rows =
      DatedRows(7, 3 * kMorselRows + 1234, /*integer_values=*/true);
  const std::vector<DatedRow> sorted = Clustered(rows);
  DatedStar clustered = BuildDatedStar(sorted);
  DatedStar shuffled = BuildDatedStar(Shuffled(rows, 8));
  ASSERT_EQ(DatePrefixRows(clustered), static_cast<int64_t>(rows.size()));
  ASSERT_EQ(DatePrefixRows(shuffled), 1);

  // A 15-day range around the first morsel boundary.
  const int boundary_day = sorted[kMorselRows].day;
  ASSERT_GT(sorted[kMorselRows].day, sorted.front().day);
  const std::vector<Predicate> days = {
      {0, 0, PredicateOp::kBetween,
       {DayName(boundary_day - 7), DayName(boundary_day + 7)}}};
  ExpectSameCells(clustered, shuffled, days, "days across a boundary");

  // Two months with a gap: one range per morsel visits the month between.
  const std::vector<Predicate> gap = {
      {0, 1, PredicateOp::kIn, {"Y0-04", "Y0-06"}}};
  ExpectSameCells(clustered, shuffled, gap, "months with a gap");

  const std::vector<Predicate> year = {{0, 2, PredicateOp::kEquals, {"Y1"}}};
  ExpectSameCells(clustered, shuffled, year, "a year");

  const std::vector<Predicate> mixed = {
      {0, 1, PredicateOp::kBetween, {"Y0-05", "Y0-09"}},
      {1, 1, PredicateOp::kEquals, {"R1"}}};
  ExpectSameCells(clustered, shuffled, mixed, "a slice and a region");

  // A contiguous date slice visits exactly its own rows on the clustered
  // table, also next to a predicate on an unclustered hierarchy.
  auto slice_rows = [&](int lo, int hi, int region) {
    return static_cast<uint64_t>(
        std::count_if(rows.begin(), rows.end(), [&](const DatedRow& r) {
          return r.day >= lo && r.day <= hi &&
                 (region < 0 || r.store % 2 == region);
        }));
  };
  struct Contiguous {
    std::vector<Predicate> preds;
    uint64_t visited;
    uint64_t passed;
  };
  const std::vector<Contiguous> contiguous = {
      {days, slice_rows(boundary_day - 7, boundary_day + 7, -1),
       slice_rows(boundary_day - 7, boundary_day + 7, -1)},
      {year, slice_rows(360, kDatedDays - 1, -1),
       slice_rows(360, kDatedDays - 1, -1)},
      {mixed, slice_rows(120, 269, -1), slice_rows(120, 269, 1)}};
  for (int threads : {1, 4}) {
    for (const Contiguous& c : contiguous) {
      StarQueryEngine engine(clustered.db.get(), false, threads);
      ASSERT_TRUE(engine.Execute(Query(clustered, {"month"}, c.preds)).ok());
      EXPECT_EQ(engine.scan_stats().rows_visited, c.visited);
      EXPECT_EQ(engine.scan_stats().rows_passed, c.passed);
      ASSERT_TRUE(
          engine.ExecuteSharedScan({Query(clustered, {"month"}, c.preds),
                                    Query(clustered, {"region"}, c.preds)},
                                   0)
              .ok());
      EXPECT_EQ(engine.scan_stats().rows_visited, 2 * c.visited);
      EXPECT_EQ(engine.scan_stats().rows_passed, 2 * c.passed);
    }
  }
}

TEST_F(RowRangeTest, OutOfOrderAppendsAfterAClusteredPrefix) {
  const std::vector<DatedRow> rows =
      DatedRows(17, 2 * kMorselRows + 999, /*integer_values=*/true);
  // Appended rows start with the earliest day, so they end the prefix.
  std::vector<DatedRow> tail =
      DatedRows(18, kMorselRows / 2, /*integer_values=*/true);
  tail.front().day = 0;
  DatedStar clustered = BuildDatedStar(Clustered(rows), tail);
  DatedStar shuffled = BuildDatedStar(Shuffled(rows, 19), tail);
  ASSERT_EQ(DatePrefixRows(clustered), static_cast<int64_t>(rows.size()));
  ASSERT_EQ(DatePrefixRows(shuffled), 1);

  ExpectSameCells(clustered, shuffled,
                  {{0, 1, PredicateOp::kBetween, {"Y0-02", "Y0-03"}}},
                  "early months");
  ExpectSameCells(clustered, shuffled,
                  {{0, 2, PredicateOp::kEquals, {"Y1"}}}, "the last year");
}

// Bit identity with non-integer measures: a clustered date range across a
// morsel boundary sums to exactly what a whole-morsel scan gives — each
// morsel's passing rows added in row order from 0.0, the per-morsel
// partials then added in morsel order.
TEST_F(RowRangeTest, NarrowedRangesKeepTheMorselSumOrder) {
  const std::vector<DatedRow> sorted = Clustered(
      DatedRows(27, 3 * kMorselRows + 77, /*integer_values=*/false));
  DatedStar star = BuildDatedStar(sorted);
  const int boundary_day = sorted[2 * kMorselRows].day;
  const int lo = boundary_day - 20;
  const int hi = boundary_day + 20;
  const std::vector<Predicate> preds = {
      {0, 0, PredicateOp::kBetween, {DayName(lo), DayName(hi)}}};

  std::map<std::vector<std::string>, double> want_by_month;
  double want_total = 0.0;
  const int64_t n = static_cast<int64_t>(sorted.size());
  for (int64_t begin = 0; begin < n; begin += kMorselRows) {
    std::map<std::vector<std::string>, double> partial;
    double partial_total = 0.0;
    bool any = false;
    for (int64_t r = begin; r < std::min(n, begin + kMorselRows); ++r) {
      if (sorted[r].day < lo || sorted[r].day > hi) continue;
      any = true;
      partial[K(DayName(sorted[r].day).substr(0, 5))] += sorted[r].value;
      partial_total += sorted[r].value;
    }
    if (!any) continue;
    for (const auto& [month, sum] : partial) want_by_month[month] += sum;
    want_total += partial_total;
  }
  ASSERT_GE(want_by_month.size(), 2u);  // the range spans months

  const int best = static_cast<int>(DetectCpuSimdLevel());
  for (int level = 0; level <= best; ++level) {
    ForceSimdLevelForTest(level);
    for (int threads : {1, 4}) {
      StarQueryEngine engine(star.db.get(), false, threads);
      Cube by_month = *engine.Execute(Query(star, {"month"}, preds));
      Cube total = *engine.Execute(Query(star, {}, preds));
      EXPECT_EQ(engine.scan_stats().morsels_scanned, 4u);
      EXPECT_EQ(CellMap(by_month, "s"), want_by_month)
          << "tier " << level << " threads " << threads;
      EXPECT_EQ(CellMap(total, "s")[{}], want_total)
          << "tier " << level << " threads " << threads;
    }
  }
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
