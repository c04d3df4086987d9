#include "olap/hierarchy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace assess {
namespace {

Hierarchy MakeGeo() {
  Hierarchy h("Store");
  h.AddLevel("store");
  h.AddLevel("city");
  h.AddLevel("country");
  MemberId italy = h.AddMember(2, "Italy");
  MemberId rome = h.AddMember(1, "Rome");
  h.SetParent(1, rome, italy);
  MemberId smart = h.AddMember(0, "SmartMart");
  h.SetParent(0, smart, rome);
  return h;
}

TEST(HierarchyTest, LevelsInRollUpOrder) {
  Hierarchy h = MakeGeo();
  EXPECT_EQ(h.level_count(), 3);
  EXPECT_EQ(h.level_name(0), "store");
  EXPECT_EQ(h.level_name(2), "country");
  EXPECT_EQ(*h.LevelIndex("city"), 1);
  EXPECT_TRUE(h.HasLevel("store"));
  EXPECT_FALSE(h.HasLevel("region"));
  EXPECT_FALSE(h.LevelIndex("region").ok());
}

TEST(HierarchyTest, MembersAreInternedIdempotently) {
  Hierarchy h = MakeGeo();
  MemberId rome1 = h.AddMember(1, "Rome");
  MemberId rome2 = h.AddMember(1, "Rome");
  EXPECT_EQ(rome1, rome2);
  EXPECT_EQ(h.LevelCardinality(1), 1);
  EXPECT_EQ(*h.MemberIdOf(1, "Rome"), rome1);
  EXPECT_EQ(h.MemberName(1, rome1), "Rome");
  EXPECT_FALSE(h.MemberIdOf(1, "Paris").ok());
}

TEST(HierarchyTest, RollUpWalksTheChain) {
  Hierarchy h = MakeGeo();
  MemberId smart = *h.MemberIdOf(0, "SmartMart");
  EXPECT_EQ(h.MemberName(1, h.RollUpMember(0, smart, 1)), "Rome");
  EXPECT_EQ(h.MemberName(2, h.RollUpMember(0, smart, 2)), "Italy");
  // rup_G(gamma) = gamma for the same level.
  EXPECT_EQ(h.RollUpMember(0, smart, 0), smart);
}

TEST(HierarchyTest, RollUpWithMissingLinkIsInvalid) {
  Hierarchy h("H");
  h.AddLevel("a");
  h.AddLevel("b");
  MemberId orphan = h.AddMember(0, "orphan");
  EXPECT_EQ(h.RollUpMember(0, orphan, 1), kInvalidMember);
}

TEST(HierarchyTest, ValidateAcceptsCompleteMapping) {
  EXPECT_TRUE(MakeGeo().Validate().ok());
}

TEST(HierarchyTest, ValidateRejectsOrphans) {
  Hierarchy h("H");
  h.AddLevel("a");
  h.AddLevel("b");
  h.AddMember(0, "orphan");
  Status st = h.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("orphan"), std::string::npos);
}

TEST(HierarchyTest, CoarsestLevelNeedsNoParents) {
  Hierarchy h("H");
  h.AddLevel("only");
  h.AddMember(0, "x");
  EXPECT_TRUE(h.Validate().ok());
}

TEST(HierarchyTest, TemporalFlag) {
  Hierarchy h("Date");
  EXPECT_FALSE(h.temporal());
  h.set_temporal(true);
  EXPECT_TRUE(h.temporal());
}

TEST(HierarchyTest, PartOfIsFunctional) {
  // Every member of a finer level maps to exactly one coarser member, and
  // SetParent overwrites rather than multiplying.
  Hierarchy h("H");
  h.AddLevel("a");
  h.AddLevel("b");
  MemberId b1 = h.AddMember(1, "b1");
  MemberId b2 = h.AddMember(1, "b2");
  MemberId a = h.AddMember(0, "a");
  h.SetParent(0, a, b1);
  h.SetParent(0, a, b2);
  EXPECT_EQ(h.RollUpMember(0, a, 1), b2);
}

// The member index is an open-addressing table that doubles as it fills:
// 100k members cross many growths, and every id must still resolve.
TEST(HierarchyTest, IndexSurvivesManyGrowths) {
  Hierarchy h("H");
  h.AddLevel("item");
  constexpr int kMembers = 100000;
  for (int i = 0; i < kMembers; ++i) {
    ASSERT_EQ(h.AddMember(0, "item-" + std::to_string(i)), i);
  }
  EXPECT_EQ(h.LevelCardinality(0), kMembers);
  for (int i = 0; i < kMembers; ++i) {
    const std::string name = "item-" + std::to_string(i);
    auto id = h.MemberIdOf(0, name);
    ASSERT_TRUE(id.ok()) << name;
    ASSERT_EQ(*id, i);
    ASSERT_EQ(h.MemberName(0, i), name);
  }
  EXPECT_FALSE(h.MemberIdOf(0, "item-" + std::to_string(kMembers)).ok());
}

TEST(HierarchyTest, ShortLongAndEmptyNamesAreDistinct) {
  Hierarchy h("H");
  h.AddLevel("name");
  // Lengths 0..64 cross the small-string boundary; names sharing a prefix
  // differ only in their length.
  std::vector<std::string> names;
  for (size_t len = 0; len <= 64; ++len) names.push_back(std::string(len, 'x'));
  names.push_back(std::string(40, 'x') + "y");
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(h.AddMember(0, names[i]), static_cast<MemberId>(i));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(*h.MemberIdOf(0, names[i]), static_cast<MemberId>(i));
    EXPECT_EQ(h.MemberName(0, static_cast<MemberId>(i)), names[i]);
  }
  EXPECT_EQ(*h.MemberIdOf(0, ""), 0);
  EXPECT_EQ(h.MemberName(0, 0), "");
}

TEST(HierarchyTest, ReAddsAreIdempotentAcrossReservation) {
  Hierarchy h("H");
  h.AddLevel("a");
  h.AddLevel("b");
  h.ReserveMembers(0, 1000);
  for (int i = 0; i < 500; ++i) h.AddMember(0, "m" + std::to_string(i));
  h.ReserveMembers(0, 10);  // a smaller reservation never shrinks the index
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(h.AddMember(0, "m" + std::to_string(i)), i);
    }
  }
  EXPECT_EQ(h.LevelCardinality(0), 500);
  // Levels index independently: the same name is a new member elsewhere.
  EXPECT_EQ(h.AddMember(1, "m7"), 0);
  EXPECT_EQ(h.LevelCardinality(1), 1);
  // Re-adding keeps the parent links the first add set up.
  h.SetParent(0, 7, 0);
  h.AddMember(0, "m7");
  EXPECT_EQ(h.RollUpMember(0, 7, 1), 0);
}

TEST(HierarchyTest, MemberIdOfMissIsNotFound) {
  Hierarchy h = MakeGeo();
  auto missing = h.MemberIdOf(0, "NoSuchStore");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("NoSuchStore"), std::string::npos);
  // A level that never had a member misses too.
  Hierarchy empty("E");
  empty.AddLevel("l");
  EXPECT_EQ(empty.MemberIdOf(0, "").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(empty.MemberIdOf(0, "x").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace assess
