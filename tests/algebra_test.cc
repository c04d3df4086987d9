#include "algebra/operators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;
using ::assess::testutil::K;

class AlgebraTest : public ::testing::Test {
 protected:
  AlgebraTest() {
    products_ = std::make_shared<Hierarchy>("Product");
    products_->AddLevel("product");
    for (const char* p : {"Apple", "Pear", "Lemon"}) products_->AddMember(0, p);
    countries_ = std::make_shared<Hierarchy>("Store");
    countries_->AddLevel("country");
    for (const char* c : {"Italy", "France"}) countries_->AddMember(0, c);
  }

  // The target cube C of Figure 1 (Italy slice).
  Cube MakeItaly() {
    Cube cube({LevelRef{products_, 0}, LevelRef{countries_, 0}}, {"quantity"});
    cube.AddRow({0, 0}, {100});
    cube.AddRow({1, 0}, {90});
    cube.AddRow({2, 0}, {30});
    return cube;
  }

  // The benchmark cube B of Figure 1 (France slice).
  Cube MakeFrance() {
    Cube cube({LevelRef{products_, 0}, LevelRef{countries_, 0}}, {"quantity"});
    cube.AddRow({0, 1}, {150});
    cube.AddRow({1, 1}, {110});
    cube.AddRow({2, 1}, {20});
    return cube;
  }

  // Both slices (the cube C' of Figure 2).
  Cube MakeBoth() {
    Cube cube = MakeItaly();
    cube.AddRow({0, 1}, {150});
    cube.AddRow({1, 1}, {110});
    cube.AddRow({2, 1}, {20});
    return cube;
  }

  std::shared_ptr<Hierarchy> products_;
  std::shared_ptr<Hierarchy> countries_;
};

// --- Join (Figure 1, cube D) -----------------------------------------------

TEST_F(AlgebraTest, PartialJoinReproducesFigure1) {
  Cube d = *JoinCubes(MakeItaly(), MakeFrance(), {"product"}, "benchmark",
                      /*left_outer=*/false);
  EXPECT_EQ(d.NumRows(), 3);
  auto bc = CellMap(d, "benchmark.quantity");
  EXPECT_EQ(bc[K("Apple", "Italy")], 150);
  EXPECT_EQ(bc[K("Pear", "Italy")], 110);
  EXPECT_EQ(bc[K("Lemon", "Italy")], 20);
  // Left coordinates survive (country stays Italy).
  auto own = CellMap(d, "quantity");
  EXPECT_EQ(own[K("Apple", "Italy")], 100);
}

TEST_F(AlgebraTest, InnerJoinDropsNonMatching) {
  Cube france = MakeFrance();
  Cube italy_extra = MakeItaly();
  // Add a product sold only in Italy... reuse Lemon slot: new member.
  MemberId kiwi = products_->AddMember(0, "Kiwi");
  italy_extra.AddRow({kiwi, 0}, {5});
  Cube d = *JoinCubes(italy_extra, france, {"product"}, "benchmark", false);
  EXPECT_EQ(d.NumRows(), 3);
  EXPECT_EQ(CellMap(d, "quantity").count(K("Kiwi", "Italy")), 0u);
}

TEST_F(AlgebraTest, LeftOuterJoinKeepsNonMatchingWithNulls) {
  Cube italy = MakeItaly();
  MemberId kiwi = products_->AddMember(0, "Kiwi");
  italy.AddRow({kiwi, 0}, {5});
  Cube d = *JoinCubes(italy, MakeFrance(), {"product"}, "benchmark", true);
  EXPECT_EQ(d.NumRows(), 4);
  auto bc = CellMap(d, "benchmark.quantity");
  EXPECT_TRUE(std::isnan(bc[K("Kiwi", "Italy")]));
  EXPECT_EQ(bc[K("Apple", "Italy")], 150);
}

TEST_F(AlgebraTest, NaturalJoinOnAllLevels) {
  Cube both = MakeBoth();
  Cube d = *JoinCubes(both, both, {"product", "country"}, "b", false);
  EXPECT_EQ(d.NumRows(), 6);
  auto bc = CellMap(d, "b.quantity");
  EXPECT_EQ(bc[K("Apple", "France")], 150);
}

TEST_F(AlgebraTest, MultiMatchJoinEmitsOneRowPerPair) {
  // Joining Italy against both slices on product yields two rows per
  // product (the general ⋈ with p matches).
  Cube d = *JoinCubes(MakeItaly(), MakeBoth(), {"product"}, "b", false);
  EXPECT_EQ(d.NumRows(), 6);
}

TEST_F(AlgebraTest, MultiMatchJoinKeepsRightRowOrder) {
  // The right cube lists Apple's slices France first: the join emits a left
  // row's matches in the right cube's row order, not by coordinate.
  Cube right({LevelRef{products_, 0}, LevelRef{countries_, 0}}, {"quantity"});
  right.AddRow({0, 1}, {150});  // Apple, France
  right.AddRow({1, 0}, {90});   // Pear, Italy
  right.AddRow({0, 0}, {100});  // Apple, Italy
  right.AddRow({0, 1}, {7});    // Apple, France again
  Cube left({LevelRef{products_, 0}, LevelRef{countries_, 0}}, {"quantity"});
  left.AddRow({0, 0}, {1});
  Cube d = *JoinCubes(left, right, {"product"}, "b", false);
  ASSERT_EQ(d.NumRows(), 3);
  const int b = *d.MeasureIndex("b.quantity");
  EXPECT_EQ(d.MeasureAt(0, b), 150);
  EXPECT_EQ(d.MeasureAt(1, b), 100);
  EXPECT_EQ(d.MeasureAt(2, b), 7);
}

TEST_F(AlgebraTest, JoinUnknownLevelFails) {
  EXPECT_FALSE(JoinCubes(MakeItaly(), MakeFrance(), {"month"}, "b", false).ok());
}

// --- Concatenating join -----------------------------------------------------

TEST_F(AlgebraTest, ConcatJoinOrdersSlotsByOrderLevel) {
  // Right cube: two country slices; join on product concatenates both
  // quantities ordered by country member id (Italy=0, France=1).
  Cube left = MakeItaly();
  Cube right = MakeBoth();
  Cube d = *ConcatJoinCubes(left, right, {"product"}, "country", 2,
                            {{"first"}, {"second"}}, true);
  EXPECT_EQ(d.NumRows(), 3);
  auto first = CellMap(d, "first");
  auto second = CellMap(d, "second");
  EXPECT_EQ(first[K("Apple", "Italy")], 100);   // Italy slice
  EXPECT_EQ(second[K("Apple", "Italy")], 150);  // France slice
}

TEST_F(AlgebraTest, ConcatJoinSlotsAreChronologicalWhateverRowOrder) {
  // Past benchmark: the right cube holds three months per product, stored
  // newest first. Slots follow the months' chronological member order.
  auto months = std::make_shared<Hierarchy>("Date");
  months->AddLevel("month");
  months->set_temporal(true);
  for (const char* m : {"2021-01", "2021-02", "2021-03"}) {
    months->AddMember(0, m);
  }
  Cube right({LevelRef{products_, 0}, LevelRef{months, 0}}, {"quantity"});
  for (MemberId p : {0, 1}) {
    for (MemberId m : {2, 0, 1}) right.AddRow({p, m}, {10.0 * p + m});
  }
  Cube left({LevelRef{products_, 0}}, {"quantity"});
  left.AddRow({1}, {0});
  left.AddRow({0}, {0});
  Cube d = *ConcatJoinCubes(left, right, {"product"}, "month", 3,
                            {{"jan"}, {"feb"}, {"mar"}}, true);
  ASSERT_EQ(d.NumRows(), 2);
  const std::vector<std::string> slots = {"jan", "feb", "mar"};
  for (int s = 0; s < 3; ++s) {
    const int col = *d.MeasureIndex(slots[s]);
    EXPECT_EQ(d.MeasureAt(0, col), 10.0 + s);  // Pear
    EXPECT_EQ(d.MeasureAt(1, col), 0.0 + s);   // Apple
  }
}

TEST_F(AlgebraTest, ConcatJoinRequireCompleteDropsPartial) {
  Cube left = MakeItaly();
  Cube right = MakeFrance();  // only one slice: 1 match < expected 2
  Cube strict = *ConcatJoinCubes(left, right, {"product"}, "country", 2,
                                 {{"first"}, {"second"}}, true);
  EXPECT_EQ(strict.NumRows(), 0);
  Cube lax = *ConcatJoinCubes(left, right, {"product"}, "country", 2,
                              {{"first"}, {"second"}}, false);
  EXPECT_EQ(lax.NumRows(), 3);
  auto second = CellMap(lax, "second");
  EXPECT_TRUE(std::isnan(second[K("Apple", "Italy")]));
}

TEST_F(AlgebraTest, ConcatJoinValidatesSlotNames) {
  EXPECT_FALSE(ConcatJoinCubes(MakeItaly(), MakeBoth(), {"product"},
                               "country", 2, {{"only_one"}}, true)
                   .ok());
  EXPECT_FALSE(ConcatJoinCubes(MakeItaly(), MakeBoth(), {"product"},
                               "country", 2, {{"a", "extra"}, {"b"}}, true)
                   .ok());
}

// --- Pivot (Figure 2, cube D') ----------------------------------------------

TEST_F(AlgebraTest, PivotReproducesFigure2) {
  Cube d = *PivotCube(MakeBoth(), "country", "Italy", {"France"},
                      {{"qtyFrance"}}, true);
  EXPECT_EQ(d.NumRows(), 3);
  auto own = CellMap(d, "quantity");
  auto fr = CellMap(d, "qtyFrance");
  EXPECT_EQ(own[K("Apple", "Italy")], 100);
  EXPECT_EQ(fr[K("Apple", "Italy")], 150);
  EXPECT_EQ(fr[K("Pear", "Italy")], 110);
  EXPECT_EQ(fr[K("Lemon", "Italy")], 20);
}

TEST_F(AlgebraTest, PivotRequireCompleteFiltersLikeListing5) {
  Cube both = MakeBoth();
  MemberId kiwi = products_->AddMember(0, "Kiwi");
  both.AddRow({kiwi, 0}, {5});  // Kiwi sold in Italy only
  Cube strict = *PivotCube(both, "country", "Italy", {"France"},
                           {{"qtyFrance"}}, true);
  EXPECT_EQ(strict.NumRows(), 3);
  Cube lax = *PivotCube(both, "country", "Italy", {"France"},
                        {{"qtyFrance"}}, false);
  EXPECT_EQ(lax.NumRows(), 4);
  auto fr = CellMap(lax, "qtyFrance");
  EXPECT_TRUE(std::isnan(fr[K("Kiwi", "Italy")]));
}

TEST_F(AlgebraTest, PivotKeepsOnlyReferenceSlice) {
  Cube d = *PivotCube(MakeBoth(), "country", "France", {"Italy"},
                      {{"qtyItaly"}}, true);
  for (int64_t r = 0; r < d.NumRows(); ++r) {
    EXPECT_EQ(d.CoordName(r, 1), "France");
  }
}

TEST_F(AlgebraTest, PivotOfOneLevelCubeFoldsEveryRow) {
  // Pivoting the only level leaves no rest levels: every row shares the
  // empty key, so the reference row gathers all other slices.
  Cube cube({LevelRef{countries_, 0}}, {"quantity"});
  cube.AddRow({1}, {150});  // France
  cube.AddRow({0}, {100});  // Italy
  Cube d = *PivotCube(cube, "country", "Italy", {"France"}, {{"qtyFrance"}},
                      true);
  ASSERT_EQ(d.NumRows(), 1);
  EXPECT_EQ(d.CoordName(0, 0), "Italy");
  EXPECT_EQ(d.MeasureAt(0, 0), 100);
  EXPECT_EQ(d.MeasureAt(0, 1), 150);
}

TEST_F(AlgebraTest, PivotErrors) {
  EXPECT_FALSE(
      PivotCube(MakeBoth(), "month", "Italy", {"France"}, {{"x"}}, true).ok());
  EXPECT_FALSE(PivotCube(MakeBoth(), "country", "Atlantis", {"France"},
                         {{"x"}}, true)
                   .ok());
  EXPECT_FALSE(
      PivotCube(MakeBoth(), "country", "Italy", {"France"}, {}, true).ok());
  EXPECT_FALSE(PivotCube(MakeBoth(), "country", "Italy", {"France"},
                         {{"x", "too_many"}}, true)
                   .ok());
}

// --- Transforms --------------------------------------------------------------

TEST_F(AlgebraTest, CellTransformAddsMeasure) {
  Cube d = *JoinCubes(MakeItaly(), MakeFrance(), {"product"}, "benchmark",
                      false);
  ASSERT_TRUE(CellTransform(&d, "diff", {"quantity", "benchmark.quantity"},
                            [](std::span<const double> a) {
                              return a[0] - a[1];
                            })
                  .ok());
  auto diff = CellMap(d, "diff");
  EXPECT_EQ(diff[K("Apple", "Italy")], -50);
  EXPECT_EQ(diff[K("Pear", "Italy")], -20);
  EXPECT_EQ(diff[K("Lemon", "Italy")], 10);
}

TEST_F(AlgebraTest, CellTransformNullPropagation) {
  Cube cube = MakeItaly();
  cube.AddMeasureColumn("maybe");  // all null
  ASSERT_TRUE(CellTransform(&cube, "strict", {"maybe"},
                            [](std::span<const double>) { return 1.0; })
                  .ok());
  ASSERT_TRUE(CellTransform(&cube, "lax", {"maybe"},
                            [](std::span<const double>) { return 1.0; },
                            /*null_propagates=*/false)
                  .ok());
  EXPECT_TRUE(std::isnan(cube.MeasureAt(0, *cube.MeasureIndex("strict"))));
  EXPECT_EQ(cube.MeasureAt(0, *cube.MeasureIndex("lax")), 1.0);
}

TEST_F(AlgebraTest, CellTransformUnknownInputFails) {
  Cube cube = MakeItaly();
  EXPECT_FALSE(CellTransform(&cube, "x", {"nope"},
                             [](std::span<const double>) { return 0.0; })
                   .ok());
}

TEST_F(AlgebraTest, HTransformSeesWholeColumn) {
  Cube cube = MakeItaly();
  ASSERT_TRUE(
      HTransform(&cube, "share", {"quantity"},
                 [](const std::vector<std::span<const double>>& in,
                    std::span<double> out) {
                   double total = 0;
                   for (double v : in[0]) total += v;
                   for (size_t i = 0; i < out.size(); ++i) {
                     out[i] = in[0][i] / total;
                   }
                   return Status::OK();
                 })
          .ok());
  auto share = CellMap(cube, "share");
  EXPECT_DOUBLE_EQ(share[K("Apple", "Italy")], 100.0 / 220.0);
}

// Property P1: transforms adding independent measures commute.
TEST_F(AlgebraTest, TransformCommutativityP1) {
  auto f = [](std::span<const double> a) { return a[0] * 2; };
  auto g = [](std::span<const double> a) { return a[0] + 1; };
  Cube fg = MakeItaly();
  ASSERT_TRUE(CellTransform(&fg, "f", {"quantity"}, f).ok());
  ASSERT_TRUE(CellTransform(&fg, "g", {"quantity"}, g).ok());
  Cube gf = MakeItaly();
  ASSERT_TRUE(CellTransform(&gf, "g", {"quantity"}, g).ok());
  ASSERT_TRUE(CellTransform(&gf, "f", {"quantity"}, f).ok());
  EXPECT_EQ(CellMap(fg, "f"), CellMap(gf, "f"));
  EXPECT_EQ(CellMap(fg, "g"), CellMap(gf, "g"));
}

TEST_F(AlgebraTest, ProjectMeasuresRenames) {
  Cube cube = MakeItaly();
  cube.AddMeasureColumn("predicted");
  cube.SetMeasure(0, 1, 42);
  Cube projected = *ProjectMeasures(cube, {{"predicted", "quantity"}});
  EXPECT_EQ(projected.measure_count(), 1);
  EXPECT_EQ(projected.measure_name(0), "quantity");
  EXPECT_EQ(projected.MeasureAt(0, 0), 42);
  EXPECT_EQ(projected.NumRows(), cube.NumRows());
  EXPECT_FALSE(ProjectMeasures(cube, {{"ghost", "x"}}).ok());
}

TEST_F(AlgebraTest, AddConstantMeasure) {
  Cube cube = MakeItaly();
  AddConstantMeasure(&cube, "benchmark", 1000);
  auto bc = CellMap(cube, "benchmark");
  EXPECT_EQ(bc[K("Apple", "Italy")], 1000);
  EXPECT_EQ(bc[K("Lemon", "Italy")], 1000);
}

TEST_F(AlgebraTest, TransferToClientIsDeepEqualCopy) {
  Cube cube = MakeItaly();
  cube.AddMeasureColumn("extra");
  Cube copy = TransferToClient(cube);
  EXPECT_EQ(copy.NumRows(), cube.NumRows());
  EXPECT_EQ(copy.measure_count(), cube.measure_count());
  EXPECT_EQ(CellMap(copy, "quantity"), CellMap(cube, "quantity"));
  // Mutating the copy leaves the original untouched.
  copy.SetMeasure(0, 0, -1);
  EXPECT_EQ(cube.MeasureAt(0, 0), 100);
}

}  // namespace
}  // namespace assess
