#ifndef ASSESS_ASSESS_SESSION_H_
#define ASSESS_ASSESS_SESSION_H_

#include <shared_mutex>
#include <string_view>

#include "assess/analyzer.h"
#include "assess/executor.h"
#include "assess/parser.h"
#include "assess/planner.h"
#include "assess/result_set.h"
#include "obs/trace.h"

namespace assess {

/// \brief The library's front door: parses, analyzes, plans and executes
/// assess statements against a StarDatabase.
///
///   StarDatabase db = ...;
///   AssessSession session(&db);
///   auto result = session.Query(
///       "with SALES by month assess storeSales labels quartiles");
///   std::cout << result->ToString();
///
/// The session owns the function and labeling registries (preloaded with
/// the builtins) so users can register their own comparison functions and
/// predeclared labelings (e.g. "5stars") before querying.
class AssessSession {
 public:
  /// \brief Configured construction: `options` controls views, the scan
  /// pool and per-query thread cap (default: the shared pool's worker
  /// count; see EngineOptions) and the semantic result cache (default:
  /// on). To share a warm cache across sessions, pass the same
  /// `options.shared_cache` to each.
  AssessSession(const StarDatabase* db, const ExecutorOptions& options)
      : db_(db),
        functions_(FunctionRegistry::Default()),
        labelings_(LabelingRegistry::Default()),
        executor_(db, &functions_, options) {}

  explicit AssessSession(const StarDatabase* db, bool use_views = true)
      : AssessSession(db, [use_views] {
          ExecutorOptions options;
          options.use_views = use_views;
          return options;
        }()) {}

  FunctionRegistry* functions() { return &functions_; }
  LabelingRegistry* labelings() { return &labelings_; }
  AnalyzerOptions* options() { return &options_; }
  const Executor& executor() const { return executor_; }

  /// \brief The engine's result cache (nullptr when disabled) and its
  /// counters, for monitoring interactive sessions.
  const std::shared_ptr<CubeResultCache>& result_cache() const {
    return executor_.engine().result_cache();
  }
  CacheStats cache_stats() const { return executor_.engine().cache_stats(); }

  /// \brief Parses and analyzes a statement without executing it.
  ///
  /// Every public entry point holds the database's schema mutex shared for
  /// the duration of the statement: member-stable fact appends proceed
  /// concurrently (queries see consistent epoch snapshots), while ingest
  /// batches that insert new dimension members take it exclusively.
  Result<AnalyzedStatement> Prepare(std::string_view statement) const {
    std::shared_lock<std::shared_mutex> lock(db_->schema_mutex());
    return PrepareLocked(statement);
  }

  /// \brief Executes a statement with the plan BestPlan() picks: the fixed
  /// preference of Section 6.2 (POP, else JOP, else NP).
  Result<AssessResult> Query(std::string_view statement) const {
    std::shared_lock<std::shared_mutex> lock(db_->schema_mutex());
    ASSESS_ASSIGN_OR_RETURN(AnalyzedStatement analyzed,
                            PrepareLocked(statement));
    PlanKind plan;
    {
      Span span("plan");
      plan = BestPlan(analyzed);
      if (span.active()) span.AddString("chosen", PlanKindToString(plan));
    }
    return executor_.Execute(analyzed, plan);
  }

  /// \brief Executes a statement with an explicit plan.
  Result<AssessResult> Query(std::string_view statement, PlanKind plan) const {
    std::shared_lock<std::shared_mutex> lock(db_->schema_mutex());
    ASSESS_ASSIGN_OR_RETURN(AnalyzedStatement analyzed,
                            PrepareLocked(statement));
    return executor_.Execute(analyzed, plan);
  }

  /// \brief The logical steps the given plan performs for this statement.
  Result<std::string> Explain(std::string_view statement,
                              PlanKind plan) const {
    std::shared_lock<std::shared_mutex> lock(db_->schema_mutex());
    ASSESS_ASSIGN_OR_RETURN(AnalyzedStatement analyzed,
                            PrepareLocked(statement));
    if (!IsPlanFeasible(analyzed, plan)) {
      return Status::NotSupported(
          std::string(PlanKindToString(plan)) + " is not feasible for " +
          std::string(BenchmarkTypeToString(analyzed.type)) + " benchmarks");
    }
    return ExplainPlan(analyzed, plan);
  }

 private:
  Result<AnalyzedStatement> PrepareLocked(std::string_view statement) const {
    Result<AssessStatement> stmt = [&] {
      Span span("parse");
      return ParseAssessStatement(statement);
    }();
    ASSESS_RETURN_NOT_OK(stmt.status());
    Span span("analyze");
    return Analyze(*stmt, *db_, functions_, labelings_, options_);
  }

  const StarDatabase* db_;
  FunctionRegistry functions_;
  LabelingRegistry labelings_;
  AnalyzerOptions options_;
  Executor executor_;
};

}  // namespace assess

#endif  // ASSESS_ASSESS_SESSION_H_
