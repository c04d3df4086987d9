#include "assess/parser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

namespace assess {
namespace {

AssessStatement Parse(const std::string& input) {
  auto stmt = ParseAssessStatement(input);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::move(stmt).value();
}

// --- The four statements of Example 4.1 -------------------------------------

TEST(ParserTest, AbsoluteAssessmentStatement) {
  AssessStatement stmt =
      Parse("with SALES by month assess storeSales labels quartiles");
  EXPECT_EQ(stmt.cube, "SALES");
  EXPECT_TRUE(stmt.for_predicates.empty());
  EXPECT_EQ(stmt.by_levels, std::vector<std::string>{"month"});
  EXPECT_EQ(stmt.measure, "storeSales");
  EXPECT_EQ(stmt.against.type, BenchmarkType::kNone);
  EXPECT_FALSE(stmt.using_expr.has_value());
  EXPECT_EQ(stmt.labels.named, "quartiles");
  EXPECT_FALSE(stmt.star);
}

TEST(ParserTest, ConstantBenchmarkStatement) {
  AssessStatement stmt = Parse(
      "with SALES by month assess storeSales against 1000 "
      "using minMaxNorm(difference(storeSales, 1000)) labels 5star");
  EXPECT_EQ(stmt.against.type, BenchmarkType::kConstant);
  EXPECT_EQ(stmt.against.constant, 1000);
  ASSERT_TRUE(stmt.using_expr.has_value());
  EXPECT_EQ(stmt.using_expr->ToString(),
            "minMaxNorm(difference(storeSales, 1000))");
  EXPECT_EQ(stmt.labels.named, "5star");
}

TEST(ParserTest, SiblingStatementVerbatimFromThePaper) {
  AssessStatement stmt = Parse(
      "with SALES "
      "for type = 'Fresh Fruit', country = 'Italy' "
      "by product, country "
      "assess quantity against country = 'France' "
      "using percOfTotal(difference(quantity, benchmark.quantity)) "
      "labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}");
  ASSERT_EQ(stmt.for_predicates.size(), 2u);
  EXPECT_EQ(stmt.for_predicates[0].level, "type");
  EXPECT_EQ(stmt.for_predicates[0].members[0], "Fresh Fruit");
  EXPECT_EQ(stmt.against.type, BenchmarkType::kSibling);
  EXPECT_EQ(stmt.against.sibling_level, "country");
  EXPECT_EQ(stmt.against.sibling_member, "France");
  ASSERT_TRUE(stmt.labels.is_inline);
  ASSERT_EQ(stmt.labels.ranges.size(), 3u);
  EXPECT_TRUE(std::isinf(stmt.labels.ranges[0].lo));
  EXPECT_LT(stmt.labels.ranges[0].lo, 0);
  EXPECT_EQ(stmt.labels.ranges[0].label, "bad");
  EXPECT_TRUE(stmt.labels.ranges[1].hi_closed);
  EXPECT_FALSE(stmt.labels.ranges[2].lo_closed);
}

TEST(ParserTest, PastStatementVerbatimFromThePaper) {
  AssessStatement stmt = Parse(
      "with SALES "
      "for month = '1997-07', store = 'SmartMart' "
      "by month, store "
      "assess storeSales against past 4 "
      "using ratio(storeSales, benchmark.storeSales) "
      "labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}");
  EXPECT_EQ(stmt.against.type, BenchmarkType::kPast);
  EXPECT_EQ(stmt.against.past_k, 4);
  EXPECT_EQ(stmt.using_expr->ToString(),
            "ratio(storeSales, benchmark.storeSales)");
}

// --- Clause variants ---------------------------------------------------------

TEST(ParserTest, AssessStarSetsFlag) {
  AssessStatement stmt =
      Parse("with SALES by month assess* storeSales labels quartiles");
  EXPECT_TRUE(stmt.star);
}

TEST(ParserTest, ExternalBenchmark) {
  AssessStatement stmt = Parse(
      "with SSB by customer assess revenue against BUDGET.plannedRevenue "
      "labels quartiles");
  EXPECT_EQ(stmt.against.type, BenchmarkType::kExternal);
  EXPECT_EQ(stmt.against.external_cube, "BUDGET");
  EXPECT_EQ(stmt.against.external_measure, "plannedRevenue");
}

TEST(ParserTest, NegativeConstantBenchmark) {
  AssessStatement stmt = Parse(
      "with SALES by month assess profit against -50 labels quartiles");
  EXPECT_EQ(stmt.against.type, BenchmarkType::kConstant);
  EXPECT_EQ(stmt.against.constant, -50);
}

TEST(ParserTest, InPredicate) {
  AssessStatement stmt = Parse(
      "with SALES for country in ('Italy', 'France') by product "
      "assess quantity labels quartiles");
  ASSERT_EQ(stmt.for_predicates.size(), 1u);
  EXPECT_EQ(stmt.for_predicates[0].op, PredicateOp::kIn);
  EXPECT_EQ(stmt.for_predicates[0].members,
            (std::vector<std::string>{"Italy", "France"}));
}

TEST(ParserTest, BetweenPredicate) {
  AssessStatement stmt = Parse(
      "with SALES for month between '1997-03' and '1997-06' by month "
      "assess quantity labels quartiles");
  EXPECT_EQ(stmt.for_predicates[0].op, PredicateOp::kBetween);
  EXPECT_EQ(stmt.for_predicates[0].members,
            (std::vector<std::string>{"1997-03", "1997-06"}));
}

TEST(ParserTest, QuotedStringLabels) {
  AssessStatement stmt = Parse(
      "with SALES by month assess storeSales "
      "labels {[-inf, 0): '*', [0, inf]: '*****'}");
  ASSERT_TRUE(stmt.labels.is_inline);
  EXPECT_EQ(stmt.labels.ranges[0].label, "*");
  EXPECT_EQ(stmt.labels.ranges[1].label, "*****");
}

TEST(ParserTest, NumberPrefixedLabelingName) {
  AssessStatement stmt =
      Parse("with SALES by month assess storeSales labels 5stars");
  EXPECT_EQ(stmt.labels.named, "5stars");
}

TEST(ParserTest, UsingWithNumericLeaf) {
  AssessStatement stmt = Parse(
      "with SALES by month assess storeSales using "
      "difference(storeSales, -3.5) labels quartiles");
  EXPECT_EQ(stmt.using_expr->ToString(), "difference(storeSales, -3.5)");
}

TEST(ParserTest, NullaryCallParses) {
  AssessStatement stmt = Parse(
      "with SALES by month assess storeSales using f() labels quartiles");
  EXPECT_EQ(stmt.using_expr->ToString(), "f()");
}

TEST(ParserTest, OriginalTextIsPreserved) {
  std::string text =
      "  with SALES by month assess storeSales labels quartiles ";
  AssessStatement stmt = Parse(text);
  EXPECT_EQ(stmt.original_text,
            "with SALES by month assess storeSales labels quartiles");
}

TEST(ParserTest, ToStringRoundTripsStructurally) {
  const char* statements[] = {
      "with SALES by month assess storeSales labels quartiles",
      "with SALES for type = 'Fresh Fruit', country = 'Italy' by product, "
      "country assess quantity against country = 'France' using "
      "percOfTotal(difference(quantity, benchmark.quantity), quantity) labels "
      "{[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}",
      "with SALES for month = '1997-07', store = 'SmartMart' by month, store "
      "assess* storeSales against past 4 using ratio(storeSales, "
      "benchmark.storeSales) labels {[0, 0.9): worse, [0.9, 1.1]: fine, "
      "(1.1, inf): better}",
      "with SSB by customer assess revenue against BUDGET.plannedRevenue "
      "labels quartiles",
  };
  for (const char* text : statements) {
    AssessStatement once = Parse(text);
    AssessStatement twice = Parse(once.ToString());
    EXPECT_EQ(once.ToString(), twice.ToString()) << text;
    EXPECT_EQ(once.cube, twice.cube);
    EXPECT_EQ(once.by_levels, twice.by_levels);
    EXPECT_EQ(once.star, twice.star);
    EXPECT_EQ(once.measure, twice.measure);
    EXPECT_EQ(once.against.type, twice.against.type);
  }
}

// --- Errors ------------------------------------------------------------------

struct BadStatement {
  const char* text;
  const char* reason;
};

// Names each case by its reason. Without this gtest prints the raw pointer
// bytes, and CTest's discovered test names change with every build and run.
void PrintTo(const BadStatement& statement, std::ostream* os) {
  *os << statement.reason;
}

class ParserErrorTest : public ::testing::TestWithParam<BadStatement> {};

TEST_P(ParserErrorTest, IsRejectedWithInvalidArgument) {
  auto result = ParseAssessStatement(GetParam().text);
  ASSERT_FALSE(result.ok()) << GetParam().reason;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << GetParam().reason;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadStatement{"", "empty statement"},
        BadStatement{"by month assess x labels q", "missing with"},
        BadStatement{"with SALES assess x labels q", "missing by"},
        BadStatement{"with SALES by month labels q", "missing assess"},
        BadStatement{"with SALES by month assess x", "missing labels"},
        BadStatement{"with SALES by month assess x labels q extra",
                     "trailing tokens"},
        BadStatement{"with SALES by month assess x against past 0 labels q",
                     "past window must be positive"},
        BadStatement{"with SALES by month assess x against past 2.5 labels q",
                     "past window must be integral"},
        BadStatement{"with SALES by month assess x against labels q",
                     "malformed against"},
        BadStatement{"with SALES for country by month assess x labels q",
                     "predicate without operator"},
        BadStatement{"with SALES for country = Italy by month assess x "
                     "labels q",
                     "unquoted member"},
        BadStatement{"with SALES by month assess x labels {[0, 1: bad}",
                     "unclosed range"},
        BadStatement{"with SALES by month assess x labels {[0, 1) bad}",
                     "missing colon"},
        BadStatement{"with SALES by month assess x labels {[zero, 1): bad}",
                     "non-numeric bound"},
        BadStatement{"with SALES by month assess x using f( labels q",
                     "unclosed call"},
        BadStatement{"with SALES by month assess x against B. labels q",
                     "dangling dot"}));

}  // namespace
}  // namespace assess
