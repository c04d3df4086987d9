// The vectorized-scan determinism contract: both SIMD tiers (scalar /
// AVX2), every thread count and every run must produce bit-identical
// cubes — the tier is a pure performance knob. Plus tail handling at every
// alignment boundary, and how appends extend the fact table's row-range
// index.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/task_pool.h"
#include "olap/cube_query.h"
#include "storage/scan_kernels.h"
#include "storage/star_query_engine.h"
#include "storage/star_schema.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;
using ::assess::testutil::K;

// Coordinate -> raw bit pattern of one measure: tier comparisons must be
// exact to the last bit, not within float tolerance.
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

// A randomly shaped star: 2-3 two-level dimensions of random cardinality,
// one measure per aggregation operator, `rows` facts with skewed foreign
// keys and sign-mixed values. About one row in 256 holds a special value
// instead (±0.0, kNullMeasure or ±inf), so the bit comparisons also pin
// how every operator treats signed zeros, NaN and infinities across tiers,
// thread counts and the morsel merge. One dimension row per fine member,
// so fk code == fine member id.
struct RandomStar {
  std::unique_ptr<StarDatabase> db;
  std::shared_ptr<CubeSchema> schema;
  std::vector<std::string> fine_levels;
  std::vector<std::string> coarse_levels;
};

RandomStar BuildRandomStar(uint64_t seed, int64_t rows) {
  Rng rng(seed);
  RandomStar star;
  star.schema = std::make_shared<CubeSchema>("R");
  const int num_dims = 2 + static_cast<int>(rng.Uniform(2));
  std::vector<DimensionTable> dims;
  std::vector<int64_t> dim_rows;
  for (int d = 0; d < num_dims; ++d) {
    const std::string tag = std::to_string(d);
    auto hier = std::make_shared<Hierarchy>("D" + tag);
    star.fine_levels.push_back("d" + tag + "_fine");
    star.coarse_levels.push_back("d" + tag + "_coarse");
    hier->AddLevel(star.fine_levels.back());
    hier->AddLevel(star.coarse_levels.back());
    const int fine = 2 + static_cast<int>(rng.Uniform(60));
    const int coarse = 1 + static_cast<int>(rng.Uniform(5));
    for (int m = 0; m < coarse; ++m) {
      hier->AddMember(1, "c" + tag + "_" + std::to_string(m));
    }
    DimensionTable dim("D" + tag, hier);
    for (int m = 0; m < fine; ++m) {
      MemberId f = hier->AddMember(0, "f" + tag + "_" + std::to_string(m));
      MemberId c = static_cast<MemberId>(rng.Uniform(coarse));
      hier->SetParent(0, f, c);
      dim.AddRow({f, c});
    }
    star.schema->AddHierarchy(hier);
    dims.push_back(std::move(dim));
    dim_rows.push_back(fine);
  }
  star.schema->AddMeasure({"s", AggOp::kSum});
  star.schema->AddMeasure({"a", AggOp::kAvg});
  star.schema->AddMeasure({"lo", AggOp::kMin});
  star.schema->AddMeasure({"hi", AggOp::kMax});
  star.schema->AddMeasure({"n", AggOp::kCount});
  FactTable facts("R", num_dims, 5);
  facts.Reserve(rows);
  std::vector<int32_t> fks(num_dims);
  for (int64_t i = 0; i < rows; ++i) {
    for (int d = 0; d < num_dims; ++d) {
      fks[d] = static_cast<int32_t>(
          rng.Skewed(static_cast<uint64_t>(dim_rows[d])));
    }
    double v = rng.NextDouble() * 1000.0 - 500.0;
    if (rng.Uniform(256) == 0) {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      const double specials[] = {0.0, -0.0, kNullMeasure, kInf, -kInf};
      v = specials[rng.Uniform(5)];
    }
    facts.AddRow(fks, {v, v, v, v, v});
  }
  star.db = std::make_unique<StarDatabase>();
  EXPECT_TRUE(star.db
                  ->Register("R", std::make_unique<BoundCube>(
                                      star.schema, std::move(dims),
                                      std::move(facts)))
                  .ok());
  return star;
}

class SimdKernelTest : public ::testing::Test {
 protected:
  ~SimdKernelTest() override { ForceSimdLevelForTest(-1); }
};

TEST_F(SimdKernelTest, ResolveSimdLevelParsesTheKnob) {
  const SimdLevel avx2 = SimdLevel::kAVX2;
  const SimdLevel scalar = SimdLevel::kScalar;
  EXPECT_EQ(ResolveSimdLevel(nullptr, avx2), avx2);
  for (const char* off : {"off", "OFF", "scalar", "0", "none"}) {
    EXPECT_EQ(ResolveSimdLevel(off, avx2), scalar) << off;
  }
  // SSE4.2 is a ceiling below AVX2, and only the scalar tier lies under it.
  EXPECT_EQ(ResolveSimdLevel("sse42", avx2), scalar);
  EXPECT_EQ(ResolveSimdLevel("SSE4.2", avx2), scalar);
  // The knob is a ceiling: asking for a tier the CPU lacks falls back.
  EXPECT_EQ(ResolveSimdLevel("avx2", scalar), scalar);
  EXPECT_EQ(ResolveSimdLevel("avx2", avx2), avx2);
  EXPECT_EQ(ResolveSimdLevel("auto", avx2), avx2);
  EXPECT_EQ(ResolveSimdLevel("definitely-not-a-tier", scalar), scalar);
}

// The core property: random cubes, random group-bys, random predicates,
// every aggregation operator — scalar and every compiled-in vector tier,
// at 1 and 4 threads, must agree on every output bit.
TEST_F(SimdKernelTest, BitIdenticalAcrossTiersAndThreads) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  const std::vector<const char*> measures = {"s", "a", "lo", "hi", "n"};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    // Spans multiple morsels so the parallel path and the merge engage.
    RandomStar star = BuildRandomStar(seed, /*rows=*/3 * kMorselRows + 777);
    Rng rng(seed * 97);

    // A handful of random queries per star: random subset of levels to
    // group by, random predicates (possibly none, possibly on a grouped
    // hierarchy, possibly on the coarse level).
    for (int q = 0; q < 4; ++q) {
      std::vector<std::string> by;
      for (size_t d = 0; d < star.fine_levels.size(); ++d) {
        switch (rng.Uniform(3)) {
          case 0:
            by.push_back(star.fine_levels[d]);
            break;
          case 1:
            by.push_back(star.coarse_levels[d]);
            break;
          default:
            break;  // not grouped
        }
      }
      std::vector<Predicate> preds;
      for (size_t d = 0; d < star.fine_levels.size(); ++d) {
        if (rng.Uniform(2) == 0) continue;
        const Hierarchy& hier =
            *star.schema->hierarchy_ptr(static_cast<int>(d));
        int level = static_cast<int>(rng.Uniform(2));
        int32_t card = hier.LevelCardinality(level);
        Predicate p;
        p.hierarchy = static_cast<int>(d);
        p.level = level;
        p.op = PredicateOp::kIn;
        int picks = 1 + static_cast<int>(rng.Uniform(3));
        for (int i = 0; i < picks; ++i) {
          p.members.push_back(hier.MemberName(
              level, static_cast<MemberId>(rng.Uniform(card))));
        }
        preds.push_back(std::move(p));
      }
      auto query_or = CubeQuery::Make(*star.schema, "R", by, preds,
                                      {"s", "a", "lo", "hi", "n"});
      ASSERT_TRUE(query_or.ok()) << query_or.status().ToString();
      const CubeQuery& query = *query_or;

      ForceSimdLevelForTest(0);
      StarQueryEngine reference(star.db.get(), /*use_views=*/false, 1);
      Cube expected = *reference.Execute(query);
      std::vector<std::map<std::vector<std::string>, uint64_t>> want;
      for (const char* m : measures) want.push_back(BitMap(expected, m));

      for (int level = 0; level <= best; ++level) {
        for (int threads : {1, 4}) {
          ForceSimdLevelForTest(level);
          StarQueryEngine engine(star.db.get(), /*use_views=*/false,
                                 threads);
          Cube actual = *engine.Execute(query);
          for (size_t m = 0; m < measures.size(); ++m) {
            EXPECT_EQ(want[m], BitMap(actual, measures[m]))
                << "seed=" << seed << " q=" << q << " tier=" << level
                << " threads=" << threads << " measure=" << measures[m];
          }
        }
      }
      ForceSimdLevelForTest(-1);
    }
  }
}

// Group-by spaces beyond kDenseKeyLimit take the generic hash kernel in
// every tier; results must still be tier- and thread-independent.
TEST_F(SimdKernelTest, HugeKeySpaceFallsBackDeterministically) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  auto schema = std::make_shared<CubeSchema>("W");
  std::vector<DimensionTable> dims;
  constexpr int kCard = 70;  // (70+1)^3 > 2^18: generic path
  std::vector<std::string> by;
  for (int d = 0; d < 3; ++d) {
    auto hier = std::make_shared<Hierarchy>("W" + std::to_string(d));
    by.push_back("w" + std::to_string(d));
    hier->AddLevel(by.back());
    DimensionTable dim("W" + std::to_string(d), hier);
    for (int m = 0; m < kCard; ++m) {
      dim.AddRow({hier->AddMember(
          0, "m" + std::to_string(d) + "_" + std::to_string(m))});
    }
    schema->AddHierarchy(hier);
    dims.push_back(std::move(dim));
  }
  schema->AddMeasure({"s", AggOp::kSum});
  FactTable facts("W", 3, 1);
  Rng rng(23);
  const int64_t rows = 2 * kMorselRows + 13;
  facts.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    facts.AddRow({static_cast<int32_t>(rng.Uniform(kCard)),
                  static_cast<int32_t>(rng.Uniform(kCard)),
                  static_cast<int32_t>(rng.Uniform(kCard))},
                 {rng.NextDouble() * 10.0 - 5.0});
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("W", std::make_unique<BoundCube>(
                                   schema, std::move(dims),
                                   std::move(facts)))
                  .ok());
  CubeQuery q = *CubeQuery::Make(*schema, "W", by, {}, {"s"});
  ForceSimdLevelForTest(0);
  StarQueryEngine reference(&db, false, 1);
  auto want = BitMap(*reference.Execute(q), "s");
  EXPECT_GT(want.size(), 0u);
  for (int level = 0; level <= best; ++level) {
    for (int threads : {1, 4}) {
      ForceSimdLevelForTest(level);
      StarQueryEngine engine(&db, false, threads);
      EXPECT_EQ(want, BitMap(*engine.Execute(q), "s"))
          << "tier=" << level << " threads=" << threads;
    }
  }
}

// Tail behavior at every alignment boundary the kernels care about: vector
// width, kernel block, bitmap word and morsel edges, including the empty
// table. Integer-valued measures make the expected sums exact under any
// summation order, so the test can also pin absolute values.
TEST_F(SimdKernelTest, TailRowCountsAreExact) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kCard = 4;
  DimensionTable dim_proto("K", hier);
  for (int g = 0; g < kCard; ++g) {
    dim_proto.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  schema->AddMeasure({"n", AggOp::kCount});

  for (int64_t rows :
       {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{4}, int64_t{5},
        int64_t{63}, int64_t{64}, int64_t{65}, int64_t{4095}, int64_t{4096},
        int64_t{4097}, kMorselRows - 1, kMorselRows, kMorselRows + 1}) {
    FactTable facts("T", 1, 2);
    facts.Reserve(rows);
    double want_sum = 0.0;
    int64_t want_count = 0;
    for (int64_t i = 0; i < rows; ++i) {
      int32_t code = static_cast<int32_t>(i % kCard);
      double v = static_cast<double>(i % 7);
      facts.AddRow({code}, {v, v});
      if (code < 2) {  // the predicate below keeps g0 and g1
        want_sum += v;
        ++want_count;
      }
    }
    StarDatabase db;
    ASSERT_TRUE(db.Register("T",
                            std::make_unique<BoundCube>(
                                schema,
                                std::vector<DimensionTable>{dim_proto},
                                std::move(facts)))
                    .ok());
    CubeQuery q = *CubeQuery::Make(
        *schema, "T", {}, {{0, 0, PredicateOp::kIn, {"g0", "g1"}}},
        {"s", "n"});
    for (int level = 0; level <= best; ++level) {
      ForceSimdLevelForTest(level);
      StarQueryEngine engine(&db, false, 1);
      Cube cube = *engine.Execute(q);
      if (want_count == 0) {
        EXPECT_EQ(cube.NumRows(), 0) << "rows=" << rows;
        continue;
      }
      ASSERT_EQ(cube.NumRows(), 1) << "rows=" << rows << " tier=" << level;
      auto sums = CellMap(cube, "s");
      auto counts = CellMap(cube, "n");
      EXPECT_EQ(sums.begin()->second, want_sum)
          << "rows=" << rows << " tier=" << level;
      EXPECT_EQ(counts.begin()->second, static_cast<double>(want_count))
          << "rows=" << rows << " tier=" << level;
    }
  }
}

// A scan with no group-by adds its passing rows in row order, like every
// other scan: within one morsel, a predicated SUM equals a row-order
// std::accumulate of the passing values bit for bit, AVG is that sum over
// the count, and COUNT is exact — at every tier. Values span eight decades
// and both signs, so any reordering of the adds shows in the low bits.
TEST_F(SimdKernelTest, NoGroupBySumsAddInRowOrder) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kCard = 5;
  DimensionTable dim("K", hier);
  for (int g = 0; g < kCard; ++g) {
    dim.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  schema->AddMeasure({"a", AggOp::kAvg});
  schema->AddMeasure({"n", AggOp::kCount});
  constexpr int64_t kRows = 10007;
  static_assert(kRows < kMorselRows);
  FactTable facts("T", 1, 3);
  facts.Reserve(kRows);
  Rng rng(31);
  std::vector<double> passing;
  for (int64_t i = 0; i < kRows; ++i) {
    const int32_t code = static_cast<int32_t>(rng.Uniform(kCard));
    double v = (rng.NextDouble() - 0.5);
    for (uint64_t e = rng.Uniform(8); e > 0; --e) v *= 10.0;
    facts.AddRow({code}, {v, v, v});
    if (code != 1 && code != 3) passing.push_back(v);  // the predicate below
  }
  const double want_sum = std::accumulate(passing.begin(), passing.end(), 0.0);
  const double want_count = static_cast<double>(passing.size());
  const double want_avg = want_sum / want_count;
  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  CubeQuery q = *CubeQuery::Make(
      *schema, "T", {}, {{0, 0, PredicateOp::kIn, {"g0", "g2", "g4"}}},
      {"s", "a", "n"});
  auto bits = [](double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (int level = 0; level <= best; ++level) {
    for (int threads : {1, 4}) {
      ForceSimdLevelForTest(level);
      StarQueryEngine engine(&db, false, threads);
      Cube cube = *engine.Execute(q);
      ASSERT_EQ(cube.NumRows(), 1) << "tier=" << level;
      EXPECT_EQ(bits(CellMap(cube, "s").begin()->second), bits(want_sum))
          << "tier=" << level << " threads=" << threads;
      EXPECT_EQ(bits(CellMap(cube, "a").begin()->second), bits(want_avg))
          << "tier=" << level << " threads=" << threads;
      EXPECT_EQ(CellMap(cube, "n").begin()->second, want_count)
          << "tier=" << level << " threads=" << threads;
    }
  }
}

// Signed zeros, NaN and infinities follow the operator rules of
// olap/aggregate.h, checked against a row-order fold written out here: MIN
// and MAX replace the running value only by a strictly smaller (larger)
// one, so a NaN row is skipped and the first of equal zeros stays, across
// the morsel merge too. Values are otherwise integers, so SUM and AVG are
// exact in any order of adds (or NaN, compared as NaN). Per group:
// g0 is one +0.0 then -0.0s, g1 integers with NaNs (its last row too),
// g2 integers with one +inf and one -inf, g3 integers only.
TEST_F(SimdKernelTest, SpecialValuesFollowTheOperatorRules) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kGroups = 4;
  DimensionTable dim("K", hier);
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
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int64_t rows = 2 * kMorselRows + 103;
  FactTable facts("T", 1, 5);
  facts.Reserve(rows);
  Rng rng(41);
  std::vector<double> sum(kGroups, 0.0), count(kGroups, 0.0);
  std::vector<double> lo(kGroups, kInf), hi(kGroups, -kInf);
  for (int64_t i = 0; i < rows; ++i) {
    const int g = static_cast<int>(i % kGroups);
    double v = static_cast<double>(rng.Uniform(21)) - 10.0;
    if (g == 0) v = i == 0 ? 0.0 : -0.0;
    if (g == 1 && (i % 997 == 1 || i + kGroups >= rows)) v = kNullMeasure;
    if (g == 2 && i == 6) v = kInf;
    if (g == 2 && i == kMorselRows + 6) v = -kInf;
    facts.AddRow({g}, {v, v, v, v, v});
    sum[g] += v;
    count[g] += 1;
    if (v < lo[g]) lo[g] = v;
    if (hi[g] < v) hi[g] = v;
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  CubeQuery q =
      *CubeQuery::Make(*schema, "T", {"k"}, {}, {"s", "a", "lo", "hi", "n"});
  auto bits = [](double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  auto same = [&](double actual, double want) {
    return std::isnan(want) ? std::isnan(actual) : bits(actual) == bits(want);
  };
  for (int level = 0; level <= best; ++level) {
    for (int threads : {1, 4}) {
      ForceSimdLevelForTest(level);
      StarQueryEngine engine(&db, false, threads);
      Cube cube = *engine.Execute(q);
      ASSERT_EQ(cube.NumRows(), kGroups);
      for (int g = 0; g < kGroups; ++g) {
        const std::vector<std::string> coord = {"g" + std::to_string(g)};
        const std::string where = "g" + std::to_string(g) +
                                  " tier=" + std::to_string(level) +
                                  " threads=" + std::to_string(threads);
        EXPECT_TRUE(same(CellMap(cube, "s")[coord], sum[g])) << where;
        EXPECT_TRUE(same(CellMap(cube, "a")[coord], sum[g] / count[g]))
            << where;
        EXPECT_EQ(bits(CellMap(cube, "lo")[coord]), bits(lo[g])) << where;
        EXPECT_EQ(bits(CellMap(cube, "hi")[coord]), bits(hi[g])) << where;
        EXPECT_EQ(CellMap(cube, "n")[coord], count[g]) << where;
      }
    }
  }
}

// The row-range index grows with in-order appends and freezes at the first
// out-of-order one; a snapshot keeps the index of its own rows however the
// table grows afterwards, and scans include the appended rows on either
// side of the clustered prefix.
TEST_F(SimdKernelTest, AppendExtendsDerivedStructures) {
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  DimensionTable dim("K", hier);
  for (int g = 0; g < 4; ++g) {
    dim.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  FactTable facts("T", 1, 1);
  for (int64_t i = 0; i < 100; ++i) {
    facts.AddRow({static_cast<int32_t>(i / 50)}, {1.0});
  }
  const FactSnapshot before = facts.Snapshot();
  ASSERT_NE(before.clustered, nullptr);
  const ClusteredPrefix& b0 = (*before.clustered)[0];
  EXPECT_EQ(b0.rows, 100);
  EXPECT_EQ(b0.codes, (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(b0.first_row, (std::vector<int64_t>{0, 50}));

  // In-order appends, one row and then a batch, grow the prefix.
  facts.AddRow({2}, {1.0});
  EXPECT_GT(facts.epoch(), before.epoch);
  EXPECT_EQ(facts.AppendBatch({{2, 3}}, {{1.0, 1.0}}).first_row, 101);
  const FactSnapshot grown = facts.Snapshot();
  const ClusteredPrefix& g0 = (*grown.clustered)[0];
  EXPECT_EQ(g0.rows, 103);
  EXPECT_EQ(g0.codes, (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(g0.first_row, (std::vector<int64_t>{0, 50, 100, 102}));

  // The first out-of-order row freezes it, and a later in-order one (3
  // after 1) does not restart it.
  facts.AddRow({1}, {1.0});
  facts.AddRow({3}, {1.0});
  const FactSnapshot frozen = facts.Snapshot();
  EXPECT_EQ(frozen.rows, 105);
  EXPECT_EQ((*frozen.clustered)[0].rows, 103);
  EXPECT_EQ((*frozen.clustered)[0].codes, g0.codes);
  // Older snapshots still hold their own index.
  EXPECT_EQ(b0.rows, 100);
  EXPECT_EQ(b0.codes.size(), 2u);
  EXPECT_EQ(g0.rows, 103);

  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema,
                                   std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine engine(&db, false, 1);
  CubeQuery q = *CubeQuery::Make(*schema, "T", {"k"}, {}, {"s"});
  auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto sums = CellMap(*result, "s");
  EXPECT_EQ(sums.at(K("g0")), 50.0);
  EXPECT_EQ(sums.at(K("g1")), 51.0);  // 50 original + 1 past the prefix
  EXPECT_EQ(sums.at(K("g2")), 2.0);   // appended only
  EXPECT_EQ(sums.at(K("g3")), 2.0);   // one in the prefix, one past it

  // A slice on g1 visits one range: from its first prefix row (50) to the
  // table's last row, past the prefix (104): 55 rows, 51 passing.
  const ScanStats zero = engine.scan_stats();
  CubeQuery g1 = *CubeQuery::Make(
      *schema, "T", {}, {{0, 0, PredicateOp::kEquals, {"g1"}}}, {"s"});
  result = engine.Execute(g1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(CellMap(*result, "s")[{}], 51.0);
  const ScanStats stats = engine.scan_stats();
  EXPECT_EQ(stats.rows_visited - zero.rows_visited, 55u);
  EXPECT_EQ(stats.rows_passed - zero.rows_passed, 51u);
}

}  // namespace
}  // namespace assess
