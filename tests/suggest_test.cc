#include "assess/suggest.h"

#include <gtest/gtest.h>

#include <memory>

#include "assess/parser.h"
#include "assess/session.h"
#include "ssb/ssb_generator.h"
#include "ssb/workload.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;

class SuggestTest : public ::testing::Test {
 protected:
  SuggestTest()
      : mini_(BuildMiniSales()),
        functions_(FunctionRegistry::Default()),
        labelings_(LabelingRegistry::Default()) {}

  std::vector<Suggestion> Suggest(const std::string& text) {
    auto partial = ParsePartialAssessStatement(text);
    EXPECT_TRUE(partial.ok()) << partial.status().ToString();
    auto suggestions =
        SuggestCompletions(*partial, *mini_.db, functions_, labelings_);
    EXPECT_TRUE(suggestions.ok()) << suggestions.status().ToString();
    return std::move(suggestions).value();
  }

  testutil::MiniDb mini_;
  FunctionRegistry functions_;
  LabelingRegistry labelings_;
};

TEST(PartialParserTest, LabelsClauseMayBeMissing) {
  auto partial = ParsePartialAssessStatement(
      "with SALES for country = 'Italy' by product, country assess quantity");
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->labels.named, "");
  EXPECT_FALSE(partial->labels.is_inline);
  // The strict parser still requires it.
  EXPECT_FALSE(ParseAssessStatement(
                   "with SALES by month assess quantity")
                   .ok());
}

TEST(PartialParserTest, OtherClausesStillValidated) {
  EXPECT_FALSE(ParsePartialAssessStatement("with SALES assess x").ok());
}

TEST_F(SuggestTest, SuggestsSiblingForSlicedLevel) {
  auto suggestions = Suggest(
      "with SALES for country = 'Italy' by product, country assess quantity");
  ASSERT_FALSE(suggestions.empty());
  // The only sibling in the fixture is France; it outranks the fallback.
  EXPECT_EQ(suggestions[0].statement.against.type, BenchmarkType::kSibling);
  EXPECT_EQ(suggestions[0].statement.against.sibling_member, "France");
  EXPECT_NE(suggestions[0].rationale.find("sibling"), std::string::npos);
  // Completions are fully runnable statements.
  AssessSession session(mini_.db.get());
  auto result = session.Query(suggestions[0].statement.ToString());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->cube.NumRows(), 0);
}

TEST_F(SuggestTest, SuggestsPastForTemporalSlice) {
  auto suggestions = Suggest(
      "with SALES for month = '1997-07' by month, store assess sales");
  bool has_past = false;
  for (const Suggestion& s : suggestions) {
    if (s.statement.against.type == BenchmarkType::kPast) {
      has_past = true;
      EXPECT_GE(s.statement.against.past_k, 1);
      AssessSession session(mini_.db.get());
      auto result = session.Query(s.statement.ToString());
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  EXPECT_TRUE(has_past);
}

TEST_F(SuggestTest, SuggestsAncestorForFinerSlice) {
  auto suggestions = Suggest(
      "with SALES for product = 'Apple' by product, country assess quantity");
  bool has_ancestor = false;
  for (const Suggestion& s : suggestions) {
    if (s.statement.against.type == BenchmarkType::kAncestor) {
      has_ancestor = true;
      EXPECT_EQ(s.statement.against.ancestor_level, "type");
    }
  }
  EXPECT_TRUE(has_ancestor);
}

TEST_F(SuggestTest, FallbackForUnslicedStatements) {
  auto suggestions = Suggest("with SALES by month assess sales");
  ASSERT_FALSE(suggestions.empty());
  EXPECT_EQ(suggestions[0].statement.against.type, BenchmarkType::kNone);
  // The fallback gets a distribution labeling, not ratio bands.
  EXPECT_EQ(suggestions[0].statement.labels.named, "quartiles");
}

TEST_F(SuggestTest, CompletesOnlyMissingClauses) {
  // against given, labels missing: only using/labels are filled in.
  auto suggestions = Suggest(
      "with SALES for country = 'Italy' by product, country assess quantity "
      "against country = 'France'");
  ASSERT_EQ(suggestions.size(), 1u);
  const AssessStatement& stmt = suggestions[0].statement;
  EXPECT_EQ(stmt.against.sibling_member, "France");
  ASSERT_TRUE(stmt.using_expr.has_value());
  EXPECT_EQ(stmt.using_expr->ToString(),
            "ratio(quantity, benchmark.quantity)");
  EXPECT_TRUE(stmt.labels.is_inline);  // ratio bands
  EXPECT_EQ(stmt.labels.ranges[1].label, "fine");
}

TEST_F(SuggestTest, RespectsMaxSuggestions) {
  auto partial = ParsePartialAssessStatement(
      "with SALES for country = 'Italy', month = '1997-07' "
      "by product, country, month assess quantity");
  ASSERT_TRUE(partial.ok());
  auto suggestions =
      SuggestCompletions(*partial, *mini_.db, functions_, labelings_, 2);
  ASSERT_TRUE(suggestions.ok());
  EXPECT_LE(suggestions->size(), 2u);
}

TEST_F(SuggestTest, SuggestionsAreRankedByInterest) {
  auto suggestions = Suggest(
      "with SALES for country = 'Italy' by product, country assess quantity");
  for (size_t i = 1; i < suggestions.size(); ++i) {
    EXPECT_GE(suggestions[i - 1].interest, suggestions[i].interest);
  }
}

TEST_F(SuggestTest, UnknownCubeFails) {
  auto partial =
      ParsePartialAssessStatement("with GHOST by month assess sales");
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(
      SuggestCompletions(*partial, *mini_.db, functions_, labelings_).ok());
}

// --- Support estimate ----------------------------------------------------
// The cell-support estimate the ranking above is built on. The fixture
// keeps the name these cases had when the estimate lived in a plan cost
// model, so their test ids are unchanged.

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() {
    SsbConfig config;
    config.scale_factor = 0.01;
    db_ = std::move(BuildSsbDatabase(config)).value();
    session_ = std::make_unique<AssessSession>(db_.get());
  }

  AnalyzedStatement Must(const std::string& text) {
    auto analyzed = session_->Prepare(text);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    return std::move(analyzed).value();
  }

  std::unique_ptr<StarDatabase> db_;
  std::unique_ptr<AssessSession> session_;
};

TEST_F(CostModelTest, SelectivityOfEquality) {
  AnalyzedStatement a =
      Must("with SSB for s_region = 'ASIA' by customer, s_region assess "
           "quantity against s_region = 'AMERICA' labels quartiles");
  auto selectivity =
      EstimateSelectivity(*a.schema, a.target.predicates);
  ASSERT_TRUE(selectivity.ok());
  EXPECT_DOUBLE_EQ(*selectivity, 0.2);  // 1 of 5 regions
}

TEST_F(CostModelTest, SelectivityOfConjunction) {
  AnalyzedStatement a = Must(
      "with SSB for s_region = 'ASIA', c_region = 'EUROPE' by customer "
      "assess quantity labels quartiles");
  auto selectivity =
      EstimateSelectivity(*a.schema, a.target.predicates);
  ASSERT_TRUE(selectivity.ok());
  EXPECT_DOUBLE_EQ(*selectivity, 0.04);  // independence: 0.2 * 0.2
}

TEST_F(CostModelTest, SelectivityOfInAndBetween) {
  AnalyzedStatement in_stmt = Must(
      "with SSB for s_region in ('ASIA', 'EUROPE') by customer assess "
      "quantity labels quartiles");
  EXPECT_DOUBLE_EQ(*EstimateSelectivity(
                       *in_stmt.schema, in_stmt.target.predicates),
                   0.4);
  AnalyzedStatement between = Must(
      "with SSB for month between '1998-01' and '1998-06' by customer "
      "assess quantity labels quartiles");
  EXPECT_NEAR(*EstimateSelectivity(*between.schema,
                                               between.target.predicates),
              6.0 / 84.0, 1e-12);
}

TEST_F(CostModelTest, CellEstimateWithinFactorOfActual) {
  // The estimate should land within a small factor of the real |C| for
  // the workload queries (enough precision to rank completions).
  for (const WorkloadStatement& stmt : SsbWorkload()) {
    AnalyzedStatement a = Must(stmt.text);
    auto estimate = EstimateCells(*db_, a.target);
    ASSERT_TRUE(estimate.ok()) << stmt.name;
    auto actual = session_->Query(stmt.text);
    ASSERT_TRUE(actual.ok());
    double real = static_cast<double>(actual->cube.NumRows());
    EXPECT_GT(*estimate, real / 5.0) << stmt.name;
    EXPECT_LT(*estimate, real * 5.0 + 10.0) << stmt.name;
  }
}

}  // namespace
}  // namespace assess
