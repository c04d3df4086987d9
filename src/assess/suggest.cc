#include "assess/suggest.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/str_util.h"

#include "assess/analyzer.h"
#include "storage/star_query_engine.h"

namespace assess {

namespace {

// Fraction of Dom(level) members matched by one predicate.
double PredicateSelectivity(const Hierarchy& hierarchy,
                            const Predicate& predicate) {
  double card =
      std::max<double>(1.0, hierarchy.LevelCardinality(predicate.level));
  switch (predicate.op) {
    case PredicateOp::kEquals:
      return 1.0 / card;
    case PredicateOp::kIn:
      return std::min(1.0, static_cast<double>(predicate.members.size()) /
                               card);
    case PredicateOp::kBetween: {
      // Count matching members exactly; dictionaries are in memory and
      // levels with range predicates (months) are small.
      int64_t matched = 0;
      for (MemberId m = 0; m < hierarchy.LevelCardinality(predicate.level);
           ++m) {
        const std::string& name = hierarchy.MemberName(predicate.level, m);
        if (name >= predicate.members[0] && name <= predicate.members[1]) {
          ++matched;
        }
      }
      return static_cast<double>(matched) / card;
    }
  }
  return 1.0;
}

// Per-benchmark-type prior on expected interest: siblings are the most
// natural comparisons, then forecasts, then roll-up shares, then a bare
// zero benchmark.
double TypePrior(BenchmarkType type) {
  switch (type) {
    case BenchmarkType::kSibling:
      return 1.0;
    case BenchmarkType::kPast:
      return 0.9;
    case BenchmarkType::kAncestor:
      return 0.8;
    case BenchmarkType::kExternal:
      return 0.8;
    case BenchmarkType::kNone:
    case BenchmarkType::kConstant:
      return 0.4;
  }
  return 0.0;
}

// Candidate against clauses for a statement without one: the data-driven
// part of the suggester.
Result<std::vector<std::pair<BenchmarkClause, std::string>>>
CandidateBenchmarks(const AssessStatement& partial, const StarDatabase& db) {
  std::vector<std::pair<BenchmarkClause, std::string>> candidates;
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bound, db.Find(partial.cube));
  const CubeSchema& schema = bound->schema();
  StarQueryEngine engine(&db);

  for (const PredicateSpec& pred : partial.for_predicates) {
    if (pred.op != PredicateOp::kEquals) continue;
    if (std::find(partial.by_levels.begin(), partial.by_levels.end(),
                  pred.level) == partial.by_levels.end()) {
      continue;
    }
    Result<int> h = schema.HierarchyOfLevel(pred.level);
    if (!h.ok()) continue;
    const Hierarchy& hier = schema.hierarchy(*h);
    ASSESS_ASSIGN_OR_RETURN(int level, hier.LevelIndex(pred.level));

    if (hier.temporal()) {
      // Past benchmark over up to four predecessors.
      auto predecessors = PredecessorMembers(hier, level, pred.members[0], 1);
      if (predecessors.ok()) {
        int available = 1;
        for (int k = 4; k > 1; --k) {
          if (PredecessorMembers(hier, level, pred.members[0], k).ok()) {
            available = k;
            break;
          }
        }
        BenchmarkClause past;
        past.type = BenchmarkType::kPast;
        past.past_k = available;
        candidates.emplace_back(
            std::move(past),
            "forecast from the " + std::to_string(available) +
                " preceding " + pred.level + " slices");
      }
    } else {
      // Sibling candidates: other members of the sliced level, ranked by
      // their data support measured from the cube (one aggregate query).
      CubeQuery support;
      support.cube_name = partial.cube;
      support.group_by = GroupBySet(schema.hierarchy_count());
      support.group_by.SetLevel(*h, level);
      support.measures = {};
      for (const PredicateSpec& other : partial.for_predicates) {
        if (other.level == pred.level) continue;
        Result<int> oh = schema.HierarchyOfLevel(other.level);
        if (!oh.ok()) continue;
        Result<int> ol = schema.hierarchy(*oh).LevelIndex(other.level);
        if (!ol.ok()) continue;
        support.predicates.push_back(
            Predicate{*oh, *ol, other.op, other.members});
      }
      // Count facts per member via a count pseudo-measure: reuse measure 0
      // with the schema's operator; the ordering only needs support, so any
      // sum-like measure works.
      support.measures = {0};
      Result<Cube> distribution = engine.Execute(support);
      if (distribution.ok()) {
        std::vector<std::pair<double, std::string>> ranked;
        for (int64_t r = 0; r < distribution->NumRows(); ++r) {
          const std::string& member = distribution->CoordName(r, 0);
          if (member == pred.members[0]) continue;
          ranked.emplace_back(distribution->MeasureAt(r, 0), member);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto& a, const auto& b) { return a.first > b.first; });
        int emitted = 0;
        for (const auto& [weight, member] : ranked) {
          if (++emitted > 3) break;  // top three siblings per sliced level
          BenchmarkClause sibling;
          sibling.type = BenchmarkType::kSibling;
          sibling.sibling_level = pred.level;
          sibling.sibling_member = member;
          candidates.emplace_back(std::move(sibling),
                                  "sibling slice " + pred.level + " = '" +
                                      member + "'");
        }
      }
      // Ancestor benchmark, when a coarser level exists.
      if (level + 1 < hier.level_count()) {
        BenchmarkClause ancestor;
        ancestor.type = BenchmarkType::kAncestor;
        ancestor.ancestor_level = hier.level_name(level + 1);
        candidates.emplace_back(std::move(ancestor),
                                "share of the enclosing " +
                                    hier.level_name(level + 1));
      }
    }
  }

  // Fallback: assess the bare measure (all-zero benchmark).
  candidates.emplace_back(BenchmarkClause{},
                          "distribution of the measure itself");
  return candidates;
}

FuncExpr RatioUsing(const AssessStatement& stmt) {
  std::string benchmark_ref =
      stmt.against.type == BenchmarkType::kExternal
          ? "benchmark." + stmt.against.external_measure
          : "benchmark." + stmt.measure;
  return FuncExpr::Call("ratio", {FuncExpr::Measure(stmt.measure),
                                  FuncExpr::Measure(benchmark_ref)});
}

LabelsClause RatioBands() {
  LabelsClause labels;
  labels.is_inline = true;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  labels.ranges = {{-kInf, 0.9, true, false, "worse"},
                   {0.9, 1.1, true, true, "fine"},
                   {1.1, kInf, false, true, "better"}};
  return labels;
}

LabelsClause Quartiles() {
  LabelsClause labels;
  labels.named = "quartiles";
  return labels;
}

}  // namespace

Result<double> EstimateSelectivity(const CubeSchema& schema,
                                   const std::vector<Predicate>& predicates) {
  double selectivity = 1.0;
  for (const Predicate& p : predicates) {
    if (p.hierarchy < 0 || p.hierarchy >= schema.hierarchy_count()) {
      return Status::InvalidArgument("predicate on unknown hierarchy");
    }
    selectivity *= PredicateSelectivity(schema.hierarchy(p.hierarchy), p);
  }
  return selectivity;
}

Result<double> EstimateCells(const StarDatabase& db, const CubeQuery& query) {
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bound, db.Find(query.cube_name));
  const CubeSchema& schema = bound->schema();
  ASSESS_ASSIGN_OR_RETURN(double selectivity,
                          EstimateSelectivity(schema, query.predicates));
  double rows = static_cast<double>(bound->facts().NumRows()) * selectivity;
  double space = 1.0;
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    if (!query.group_by.HasHierarchy(h)) continue;
    int level = query.group_by.LevelOf(h);
    double card = schema.hierarchy(h).LevelCardinality(level);
    // Predicates on this hierarchy shrink the populated part of the axis.
    double axis_selectivity = 1.0;
    for (const Predicate& p : query.predicates) {
      if (p.hierarchy != h) continue;
      axis_selectivity =
          std::min(axis_selectivity,
                   PredicateSelectivity(schema.hierarchy(h), p) *
                       std::max(1.0, card / std::max<double>(
                                         1.0, schema.hierarchy(h)
                                                  .LevelCardinality(p.level))));
    }
    space *= std::max(1.0, card * std::min(1.0, axis_selectivity));
  }
  // Poisson occupancy: expected distinct coordinates hit by `rows` events.
  if (space <= 0.0) return 0.0;
  return space * (1.0 - std::exp(-rows / space));
}

Result<std::vector<Suggestion>> SuggestCompletions(
    const AssessStatement& partial, const StarDatabase& db,
    const FunctionRegistry& functions, const LabelingRegistry& labelings,
    int max_suggestions) {
  // Build the candidate statements: the cross product of against and
  // using/labels completions, keeping user-specified clauses untouched.
  std::vector<std::pair<AssessStatement, std::string>> candidates;
  if (partial.against.type == BenchmarkType::kNone &&
      !partial.using_expr.has_value()) {
    ASSESS_ASSIGN_OR_RETURN(auto benchmarks,
                            CandidateBenchmarks(partial, db));
    for (auto& [clause, rationale] : benchmarks) {
      AssessStatement stmt = partial;
      stmt.against = clause;
      candidates.emplace_back(std::move(stmt), rationale);
    }
  } else {
    candidates.emplace_back(partial, "as stated");
  }

  std::vector<std::pair<AssessStatement, std::string>> completed;
  for (auto& [stmt, rationale] : candidates) {
    if (!stmt.using_expr.has_value() &&
        stmt.against.type != BenchmarkType::kNone) {
      stmt.using_expr = RatioUsing(stmt);
    }
    if (!stmt.labels.is_inline && stmt.labels.named.empty()) {
      bool is_ratio = stmt.using_expr.has_value() &&
                      stmt.using_expr->kind == FuncExpr::Kind::kCall &&
                      EqualsIgnoreCase(stmt.using_expr->name, "ratio");
      stmt.labels = is_ratio ? RatioBands() : Quartiles();
    }
    completed.emplace_back(std::move(stmt), std::move(rationale));
  }

  // Analyze every candidate; rank valid ones by expected support.
  std::vector<Suggestion> suggestions;
  for (auto& [stmt, rationale] : completed) {
    stmt.original_text = stmt.ToString();
    Result<AnalyzedStatement> analyzed =
        Analyze(stmt, db, functions, labelings);
    if (!analyzed.ok()) continue;
    double support = 0.0;
    Result<double> target_cells = EstimateCells(db, analyzed->target);
    if (target_cells.ok()) support = *target_cells;
    if (analyzed->type != BenchmarkType::kConstant &&
        analyzed->type != BenchmarkType::kNone) {
      Result<double> benchmark_cells = EstimateCells(db, analyzed->benchmark);
      if (benchmark_cells.ok()) {
        support = std::min(support, *benchmark_cells);
      }
    }
    Suggestion suggestion;
    suggestion.statement = std::move(stmt);
    suggestion.interest = TypePrior(analyzed->type) * (1.0 + support);
    suggestion.rationale = std::move(rationale);
    suggestions.push_back(std::move(suggestion));
  }
  std::sort(suggestions.begin(), suggestions.end(),
            [](const Suggestion& a, const Suggestion& b) {
              return a.interest > b.interest;
            });
  if (static_cast<int>(suggestions.size()) > max_suggestions) {
    suggestions.resize(max_suggestions);
  }
  return suggestions;
}

}  // namespace assess
