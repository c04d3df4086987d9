#include "olap/cube.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>

namespace assess {
namespace {

std::shared_ptr<Hierarchy> MakeHier(const std::string& name,
                                    const std::string& level,
                                    const std::vector<std::string>& members) {
  auto h = std::make_shared<Hierarchy>(name);
  h->AddLevel(level);
  for (const std::string& m : members) h->AddMember(0, m);
  return h;
}

class CubeTest : public ::testing::Test {
 protected:
  CubeTest() {
    products_ = MakeHier("Product", "product", {"Apple", "Pear", "Lemon"});
    countries_ = MakeHier("Store", "country", {"Italy", "France"});
  }

  Cube MakeFigure1Cube() {
    // The cube C' of Figure 2: both country slices.
    Cube cube({LevelRef{products_, 0}, LevelRef{countries_, 0}},
              {"quantity"});
    cube.AddRow({0, 0}, {100});  // Apple, Italy
    cube.AddRow({1, 0}, {90});   // Pear, Italy
    cube.AddRow({2, 0}, {30});   // Lemon, Italy
    cube.AddRow({0, 1}, {150});  // Apple, France
    cube.AddRow({1, 1}, {110});  // Pear, France
    cube.AddRow({2, 1}, {20});   // Lemon, France
    return cube;
  }

  std::shared_ptr<Hierarchy> products_;
  std::shared_ptr<Hierarchy> countries_;
};

TEST_F(CubeTest, EmptyCube) {
  Cube cube({LevelRef{products_, 0}}, {"m"});
  EXPECT_EQ(cube.NumRows(), 0);
  EXPECT_EQ(cube.level_count(), 1);
  EXPECT_EQ(cube.measure_count(), 1);
}

TEST_F(CubeTest, AddRowStoresCoordinatesAndMeasures) {
  Cube cube = MakeFigure1Cube();
  EXPECT_EQ(cube.NumRows(), 6);
  EXPECT_EQ(cube.CoordName(0, 0), "Apple");
  EXPECT_EQ(cube.CoordName(0, 1), "Italy");
  EXPECT_EQ(cube.MeasureAt(0, 0), 100);
  EXPECT_EQ(cube.CoordAt(3, 1), 1);
}

TEST_F(CubeTest, LevelPositionAndMeasureIndex) {
  Cube cube = MakeFigure1Cube();
  EXPECT_EQ(*cube.LevelPosition("country"), 1);
  EXPECT_FALSE(cube.LevelPosition("month").ok());
  EXPECT_EQ(*cube.MeasureIndex("quantity"), 0);
  EXPECT_FALSE(cube.MeasureIndex("sales").ok());
}

TEST_F(CubeTest, AddMeasureColumnIsNullFilled) {
  Cube cube = MakeFigure1Cube();
  int idx = cube.AddMeasureColumn("derived");
  EXPECT_EQ(idx, 1);
  for (int64_t r = 0; r < cube.NumRows(); ++r) {
    EXPECT_TRUE(IsNullMeasure(cube.MeasureAt(r, idx)));
  }
  cube.SetMeasure(2, idx, 7.0);
  EXPECT_EQ(cube.MeasureAt(2, idx), 7.0);
}

TEST_F(CubeTest, RowsAddedAfterNewMeasureStayAligned) {
  Cube cube = MakeFigure1Cube();
  cube.AddMeasureColumn("derived");
  cube.AddRow({0, 0}, {1.0, 2.0});
  EXPECT_EQ(cube.MeasureAt(6, 1), 2.0);
}

TEST_F(CubeTest, SortByCoordinatesIsCanonical) {
  Cube cube = MakeFigure1Cube();
  cube.SetLabels({"a", "b", "c", "d", "e", "f"});
  cube.SortByCoordinates();
  // Apple(0) rows first, Italy(0) before France(1).
  EXPECT_EQ(cube.CoordName(0, 0), "Apple");
  EXPECT_EQ(cube.CoordName(0, 1), "Italy");
  EXPECT_EQ(cube.MeasureAt(0, 0), 100);
  EXPECT_EQ(cube.labels()[0], "a");
  EXPECT_EQ(cube.CoordName(1, 0), "Apple");
  EXPECT_EQ(cube.CoordName(1, 1), "France");
  EXPECT_EQ(cube.MeasureAt(1, 0), 150);
  EXPECT_EQ(cube.labels()[1], "d");
  EXPECT_EQ(cube.CoordName(5, 1), "France");
}

TEST_F(CubeTest, FromColumnsBuildsWithoutCopy) {
  Cube cube = Cube::FromColumns({LevelRef{products_, 0}}, {{0, 1, 2}},
                                {"m"}, {{1.0, 2.0, 3.0}});
  EXPECT_EQ(cube.NumRows(), 3);
  EXPECT_EQ(cube.MeasureAt(2, 0), 3.0);
}

TEST_F(CubeTest, ToStringTruncates) {
  Cube cube = MakeFigure1Cube();
  std::string s = cube.ToString(2);
  EXPECT_NE(s.find("product | country | quantity"), std::string::npos);
  EXPECT_NE(s.find("(4 more cells)"), std::string::npos);
}

TEST_F(CubeTest, NullMeasureDetection) {
  EXPECT_TRUE(IsNullMeasure(kNullMeasure));
  EXPECT_FALSE(IsNullMeasure(0.0));
  EXPECT_FALSE(IsNullMeasure(std::numeric_limits<double>::infinity()));
}

TEST_F(CubeTest, CoordinateIndexFullKey) {
  Cube cube = MakeFigure1Cube();
  CoordinateIndex index(cube, {0, 1});
  EXPECT_EQ(index.DistinctKeys(), 6);
  const auto& rows = index.Lookup(cube, {0, 1}, 4);  // Pear, France
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 4);
}

TEST_F(CubeTest, CoordinateIndexSubsetKeyMultiMatch) {
  Cube cube = MakeFigure1Cube();
  CoordinateIndex index(cube, {0});  // by product only
  EXPECT_EQ(index.DistinctKeys(), 3);
  const auto& rows = index.Lookup(cube, {0}, 0);  // Apple
  EXPECT_EQ(rows.size(), 2u);  // Italy + France slices
}

TEST_F(CubeTest, CoordinateIndexProbeFromAnotherCube) {
  Cube cube = MakeFigure1Cube();
  // A one-row probe cube over the same hierarchies.
  Cube probe({LevelRef{products_, 0}, LevelRef{countries_, 0}}, {"x"});
  probe.AddRow({2, 1}, {0});  // Lemon, France
  CoordinateIndex index(cube, {0, 1});
  const auto& rows = index.Lookup(probe, {0, 1}, 0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(cube.MeasureAt(rows[0], 0), 20);
}

TEST_F(CubeTest, CoordinateIndexMiss) {
  Cube cube({LevelRef{products_, 0}}, {"m"});
  cube.AddRow({0}, {1.0});
  CoordinateIndex index(cube, {0});
  Cube probe({LevelRef{products_, 0}}, {"m"});
  probe.AddRow({2}, {0.0});
  EXPECT_TRUE(index.Lookup(probe, {0}, 0).empty());
}

TEST_F(CubeTest, CoordinateIndexEmptyCube) {
  Cube cube({LevelRef{products_, 0}}, {"m"});
  CoordinateIndex index(cube, {0});
  EXPECT_EQ(index.DistinctKeys(), 0);
}

// Naive reference: key coordinates -> rows in ascending row order.
using NaiveIndex = std::map<std::vector<MemberId>, std::vector<int32_t>>;

std::vector<MemberId> KeyAt(const Cube& cube, const std::vector<int>& pos,
                            int64_t row) {
  std::vector<MemberId> key;
  for (int p : pos) key.push_back(cube.CoordAt(row, p));
  return key;
}

NaiveIndex BuildNaive(const Cube& cube, const std::vector<int>& pos) {
  NaiveIndex naive;
  for (int64_t r = 0; r < cube.NumRows(); ++r) {
    naive[KeyAt(cube, pos, r)].push_back(static_cast<int32_t>(r));
  }
  return naive;
}

// Every row of `cube` and of `probe` must find exactly the naive rows.
void ExpectMatchesNaive(const Cube& cube, const Cube& probe,
                        const std::vector<int>& pos) {
  CoordinateIndex index(cube, pos);
  NaiveIndex naive = BuildNaive(cube, pos);
  EXPECT_EQ(index.DistinctKeys(), static_cast<int64_t>(naive.size()));
  for (const Cube* side : {&cube, &probe}) {
    for (int64_t r = 0; r < side->NumRows(); ++r) {
      std::span<const int32_t> rows = index.Lookup(*side, pos, r);
      auto it = naive.find(KeyAt(*side, pos, r));
      std::vector<int32_t> expected;
      if (it != naive.end()) expected = it->second;
      ASSERT_EQ(std::vector<int32_t>(rows.begin(), rows.end()), expected)
          << "row " << r;
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    }
  }
}

TEST_F(CubeTest, CoordinateIndexMatchesNaiveOnRandomCubes) {
  std::mt19937 rng(20210323);
  for (int trial = 0; trial < 60; ++trial) {
    const int levels = 1 + static_cast<int>(rng() % 3);
    std::vector<LevelRef> refs;
    std::vector<int> used;  // members the indexed cube draws from
    for (int l = 0; l < levels; ++l) {
      const int card = 1 + static_cast<int>(rng() % 6);
      std::vector<std::string> members;
      for (int m = 0; m <= card; ++m) {
        members.push_back("m" + std::to_string(m));
      }
      refs.push_back({MakeHier("H" + std::to_string(l), "l", members), 0});
      used.push_back(card);
    }
    // Skewed coordinates (the minimum of two draws), so keys repeat; the
    // last member of every level is left to the probe cube alone.
    auto draw = [&rng](int n) {
      return static_cast<MemberId>(std::min(rng() % n, rng() % n));
    };
    const int rows = trial == 0 ? 0 : static_cast<int>(rng() % 40);
    Cube cube(refs, {"m"});
    Cube probe(refs, {"m"});
    for (int r = 0; r < rows; ++r) {
      std::vector<MemberId> c(levels), p(levels);
      for (int l = 0; l < levels; ++l) {
        c[l] = draw(used[l]);
        p[l] = draw(used[l] + 1);
      }
      cube.AddRow(c, {0});
      probe.AddRow(p, {0});
    }
    // Every key subset, the empty one (all rows in one bucket) included,
    // in ascending and in reversed level order.
    for (int mask = 0; mask < (1 << levels); ++mask) {
      std::vector<int> pos;
      for (int l = 0; l < levels; ++l) {
        if (mask & (1 << l)) pos.push_back(l);
      }
      ExpectMatchesNaive(cube, probe, pos);
      std::reverse(pos.begin(), pos.end());
      ExpectMatchesNaive(cube, probe, pos);
    }
  }
}

TEST_F(CubeTest, CoordinateIndexZeroPositionKeyIsOneBucket) {
  Cube cube = MakeFigure1Cube();
  CoordinateIndex index(cube, {});
  EXPECT_EQ(index.DistinctKeys(), 1);
  std::span<const int32_t> rows = index.Lookup(cube, {}, 3);
  EXPECT_EQ(std::vector<int32_t>(rows.begin(), rows.end()),
            (std::vector<int32_t>{0, 1, 2, 3, 4, 5}));
}

TEST_F(CubeTest, CoordinateIndexProbeMemberAddedAfterBuild) {
  // A member interned after the index was built is in no indexed row; its
  // probe must find no rows rather than another cell's.
  Cube cube = MakeFigure1Cube();
  CoordinateIndex index(cube, {0, 1});
  MemberId spain = countries_->AddMember(0, "Spain");
  Cube probe({LevelRef{products_, 0}, LevelRef{countries_, 0}}, {"x"});
  probe.AddRow({0, spain}, {0});  // Apple, Spain
  EXPECT_TRUE(index.Lookup(probe, {0, 1}, 0).empty());
}

TEST_F(CubeTest, CoordinateIndexConfirmsCollidingKeys) {
  // Two cells whose keys collide under the index's hash (found by a
  // meet-in-the-middle search): each must still find only its own rows.
  const std::vector<MemberId> a = {0, 0, 823763633};
  const std::vector<MemberId> b = {623018449, 203924744, 0};
  std::vector<LevelRef> refs;
  for (int l = 0; l < 3; ++l) {
    refs.push_back({MakeHier("C" + std::to_string(l), "c", {"x"}), 0});
  }
  Cube cube(refs, {"m"});
  cube.AddRow(a, {0});
  cube.AddRow(a, {0});
  Cube probe(refs, {"m"});
  probe.AddRow(b, {0});
  probe.AddRow(a, {0});
  const std::vector<int> pos = {0, 1, 2};
  ASSERT_EQ(CoordinateIndex::KeyOf(probe, pos, 0),
            CoordinateIndex::KeyOf(probe, pos, 1));
  ExpectMatchesNaive(cube, probe, pos);  // b's probe finds no rows
  cube.AddRow(b, {0});
  cube.AddRow(a, {0});
  ExpectMatchesNaive(cube, probe, pos);  // two buckets behind one key
}

TEST_F(CubeTest, CoordinateIndexKeySpaceWiderThan64Bits) {
  // Five levels of 2^13 + 1 members: over 2^65 possible keys, more than a
  // 64-bit key can tell apart, so answers rest on the probe's comparison of
  // the coordinates.
  std::vector<std::string> members;
  for (int m = 0; m <= 8192; ++m) members.push_back(std::to_string(m));
  std::vector<LevelRef> refs;
  for (int l = 0; l < 5; ++l) {
    refs.push_back({MakeHier("W" + std::to_string(l), "w", members), 0});
  }
  std::mt19937 rng(7);
  Cube cube(refs, {"m"});
  Cube probe(refs, {"m"});
  for (int r = 0; r < 300; ++r) {
    std::vector<MemberId> c(5), p(5);
    for (int l = 0; l < 5; ++l) {
      // A few values near the top of each level, so full keys repeat.
      c[l] = static_cast<MemberId>(8189 + rng() % 3);
      p[l] = static_cast<MemberId>(8189 + rng() % 4);  // 8192: absent
    }
    cube.AddRow(c, {0});
    probe.AddRow(p, {0});
  }
  ExpectMatchesNaive(cube, probe, {0, 1, 2, 3, 4});
  ExpectMatchesNaive(cube, probe, {4, 2, 0, 3, 1});
  ExpectMatchesNaive(cube, probe, {1, 2, 3, 4});
}

}  // namespace
}  // namespace assess
