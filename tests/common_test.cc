#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/value.h"

namespace assess {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotFound("missing").ToString(), "NotFound: missing");
}

TEST(StatusTest, WithContextPrepends) {
  Status st = Status::NotFound("cube X").WithContext("while planning");
  EXPECT_EQ(st.message(), "while planning: cube X");
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OK().WithContext("ignored").ToString(), "OK");
}

TEST(StatusTest, CodeNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> DoublePositive(int v) {
  ASSESS_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = DoublePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad = DoublePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, ValueOr) {
  EXPECT_EQ(Result<int>(7).ValueOr(9), 7);
  EXPECT_EQ(Result<int>(Status::NotFound("x")).ValueOr(9), 9);
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StrUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(EqualsIgnoreCase("ASSESS", "assess"));
  EXPECT_FALSE(EqualsIgnoreCase("assess", "asses"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\n\tx"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StrUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("benchmark.quantity", "benchmark."));
  EXPECT_FALSE(StartsWith("bench", "benchmark"));
}

TEST(FormatNumberTest, Integers) {
  EXPECT_EQ(FormatNumber(0), "0");
  EXPECT_EQ(FormatNumber(1000), "1000");
  EXPECT_EQ(FormatNumber(-42), "-42");
}

TEST(FormatNumberTest, Decimals) {
  EXPECT_EQ(FormatNumber(0.9), "0.9");
  EXPECT_EQ(FormatNumber(-0.25), "-0.25");
}

TEST(FormatNumberTest, Specials) {
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatNumber(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(FormatNumber(std::nan("")), "nan");
}

class FormatNumberRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(FormatNumberRoundTrip, ParsesBackExactly) {
  double v = GetParam();
  EXPECT_EQ(std::stod(FormatNumber(v)), v);
}

INSTANTIATE_TEST_SUITE_P(Values, FormatNumberRoundTrip,
                         ::testing::Values(0.1, 1.0 / 3.0, 1e-17, 6.02e23,
                                           -273.15, 0.30000000000000004,
                                           12345.6789, 2.2250738585072014e-308));

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, SkewedInBoundsAndSkewed) {
  Rng rng(7);
  int64_t low_half = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = rng.Skewed(100);
    EXPECT_LT(v, 100u);
    if (v < 50) ++low_half;
  }
  // The squared-uniform draw lands in the lower half ~sqrt(1/2) of the time.
  EXPECT_GT(low_half, kDraws / 2);
}

TEST(ValueTest, NumberAndString) {
  Value n(3.5);
  EXPECT_TRUE(n.is_number());
  EXPECT_EQ(n.number(), 3.5);
  EXPECT_EQ(n.ToString(), "3.5");
  Value s(std::string("Italy"));
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(s.text(), "Italy");
  EXPECT_EQ(s.ToString(), "'Italy'");
  EXPECT_EQ(Value(1.0), Value(1.0));
  EXPECT_FALSE(Value(1.0) == Value(std::string("1")));
}

TEST(StopwatchTest, Monotonic) {
  Stopwatch sw;
  double a = sw.ElapsedSeconds();
  double b = sw.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
  sw.Restart();
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 appendix B check value for the Castagnoli polynomial.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // 32 zero bytes (iSCSI test vector).
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendComposes) {
  std::string a = "assess queries for ";
  std::string b = "interactive analysis";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b.data(), b.size()), Crc32c(a + b));
  // Byte-at-a-time equals one-shot (exercises the slicing tail path).
  uint32_t crc = 0;
  for (char c : a) crc = Crc32cExtend(crc, &c, 1);
  EXPECT_EQ(crc, Crc32c(a));
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string payload = "with SALES by month assess sales labels quartiles";
  uint32_t clean = Crc32c(payload);
  for (size_t i = 0; i < payload.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      payload[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(payload), clean) << "byte " << i << " bit " << bit;
      payload[i] ^= static_cast<char>(1 << bit);
    }
  }
}

// Bit-at-a-time reflected CRC-32C: the definition both fast paths implement.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t len) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

// The SSE4.2 path (AVX2 tier) and the slicing-by-8 tables (scalar tier)
// agree with each other and with the definition for every length through
// 1,100 bytes, at every start alignment, and when chained.
TEST(Crc32cTest, HardwareAndTablePathsAgree) {
  if (DetectCpuSimdLevel() < SimdLevel::kAVX2) {
    GTEST_SKIP() << "CPU lacks the AVX2 tier; only the table path exists";
  }
  struct ClearOverride {
    ~ClearOverride() { ForceSimdLevelForTest(-1); }
  } clear_override;
  Rng rng(20261019);
  std::vector<uint8_t> buffer(1100 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Uniform(256));
  auto crc_at = [](int level, const uint8_t* p, size_t len) {
    ForceSimdLevelForTest(level);
    return Crc32c(p, len);
  };
  const int kTable = static_cast<int>(SimdLevel::kScalar);
  const int kHardware = static_cast<int>(SimdLevel::kAVX2);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len + offset <= buffer.size() && len <= 1100; ++len) {
      const uint8_t* p = buffer.data() + offset;
      const uint32_t want = ReferenceCrc32c(p, len);
      ASSERT_EQ(crc_at(kTable, p, len), want)
          << "table, offset " << offset << " len " << len;
      ASSERT_EQ(crc_at(kHardware, p, len), want)
          << "sse4.2, offset " << offset << " len " << len;
    }
  }
  // Chained extends, switching tiers between pieces, equal the one shot.
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = static_cast<size_t>(rng.Uniform(1100));
    const uint8_t* p = buffer.data() + rng.Uniform(8);
    uint32_t crc = 0;
    size_t done = 0;
    while (done < len) {
      const size_t piece =
          std::min<size_t>(len - done, 1 + rng.Uniform(64));
      ForceSimdLevelForTest(rng.Uniform(2) == 0 ? kTable : kHardware);
      crc = Crc32cExtend(crc, p + done, piece);
      done += piece;
    }
    ASSERT_EQ(crc, ReferenceCrc32c(p, len)) << "trial " << trial;
  }
}

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

Status HitOnce(const char* name) {
  ASSESS_FAILPOINT(name);
  return Status::OK();
}

TEST_F(FailpointTest, UnarmedIsFree) {
  EXPECT_TRUE(HitOnce("never.armed").ok());
  EXPECT_EQ(FailpointRegistry::Instance().triggers("never.armed"), 0u);
}

TEST_F(FailpointTest, ArmedErrorFiresWithCodeAndMessage) {
  if (!kFailpointsCompiledIn) {
    FailpointSpec spec;
    EXPECT_EQ(FailpointRegistry::Instance().Arm("x", spec).code(),
              StatusCode::kNotSupported);
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry
                  .ArmFromString(
                      "test.point=error(timeout, simulated stall)")
                  .ok());
  Status hit = HitOnce("test.point");
  EXPECT_EQ(hit.code(), StatusCode::kTimeout);
  EXPECT_EQ(hit.message(), "simulated stall");
  EXPECT_EQ(registry.triggers("test.point"), 1u);
  EXPECT_NE(registry.Describe().find("test.point"), std::string::npos);
  EXPECT_TRUE(registry.Disarm("test.point"));
  EXPECT_TRUE(HitOnce("test.point").ok());
}

TEST_F(FailpointTest, BudgetLimitsTriggers) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromString("test.budget=error:budget=2").ok());
  EXPECT_FALSE(HitOnce("test.budget").ok());
  EXPECT_FALSE(HitOnce("test.budget").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(HitOnce("test.budget").ok()) << "budget not enforced";
  }
  EXPECT_EQ(registry.triggers("test.budget"), 2u);
}

TEST_F(FailpointTest, ProbabilityIsSeededAndDeterministic) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Instance();
  auto run = [&]() {
    EXPECT_TRUE(
        registry.ArmFromString("test.p=error:p=0.5:seed=42").ok());
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern.push_back(HitOnce("test.p").ok() ? '.' : 'X');
    }
    return pattern;
  };
  std::string first = run();
  std::string second = run();  // re-arming resets the stream
  EXPECT_EQ(first, second);
  // p=0.5 over 64 draws: both outcomes occur.
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
}

TEST_F(FailpointTest, TriggeredFormSkipsSteps) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromString("test.skip=error:budget=1").ok());
  EXPECT_TRUE(ASSESS_FAILPOINT_TRIGGERED("test.skip"));
  EXPECT_FALSE(ASSESS_FAILPOINT_TRIGGERED("test.skip"));  // budget spent
}

TEST_F(FailpointTest, CorruptFlipsBytesPastOffset) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromString("test.corrupt=corrupt:seed=7").ok());
  std::string buf(64, 'a');
  std::string original = buf;
  ASSESS_FAILPOINT_CORRUPT("test.corrupt", &buf, 4);
  EXPECT_NE(buf, original);
  EXPECT_EQ(buf.substr(0, 4), original.substr(0, 4)) << "offset not honoured";
}

TEST_F(FailpointTest, SpecParserRejectsMalformedInput) {
  auto& registry = FailpointRegistry::Instance();
  for (const char* bad :
       {"nameonly", "=error", "x=", "x=explode", "x=error(nosuchcode)",
        "x=delay(abc)", "x=error:p=2", "x=error:budget=x", "x=error:tweak=1",
        "x=off(1)"}) {
    Status st = registry.ArmFromString(bad);
    EXPECT_FALSE(st.ok()) << "accepted '" << bad << "'";
    if (kFailpointsCompiledIn) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    }
  }
  // 'off' for an unknown point parses fine (disarming is idempotent).
  EXPECT_TRUE(registry.ArmFromString("x=off").ok());
}

}  // namespace
}  // namespace assess
