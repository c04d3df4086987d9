#ifndef ASSESS_ASSESS_SUGGEST_H_
#define ASSESS_ASSESS_SUGGEST_H_

#include <string>
#include <vector>

#include "assess/ast.h"
#include "common/result.h"
#include "functions/function_registry.h"
#include "labeling/label_function.h"
#include "storage/star_schema.h"

namespace assess {

/// \brief Estimated fraction of detailed rows satisfying the conjunction
/// of `predicates`, under the independence assumption:
///   selectivity(l = u)  = 1 / |Dom(l)|
///   selectivity(l in S) = |S| / |Dom(l)|
/// and a between counts its matching members exactly.
Result<double> EstimateSelectivity(const CubeSchema& schema,
                                   const std::vector<Predicate>& predicates);

/// \brief Estimated number of cells in the query's derived cube:
/// rows = |C0| * selectivity spread over the group-by space by Poisson
/// occupancy, cells = space * (1 - e^{-rows/space}).
Result<double> EstimateCells(const StarDatabase& db, const CubeQuery& query);

/// \brief A completed statement proposed for a partial one, with a score
/// estimating its expected interest for the user.
struct Suggestion {
  AssessStatement statement;
  double interest = 0.0;
  std::string rationale;
};

/// \brief Completes a partial statement — the future-work strategy of
/// Section 8 ("devise strategies for effectively completing partial assess
/// statements ... tested and ranked based on their expected interest").
///
/// Missing clauses are filled as follows:
///  - against: sibling candidates for every sliced by-level (other members
///    of the slice, ranked by their data support measured from the cube),
///    a past benchmark when a temporal slice exists, an ancestor benchmark
///    when the sliced level has coarser levels, and the constant 0
///    fallback;
///  - using: ratio and difference against the chosen benchmark;
///  - labels: quartiles for distribution-style assessments, or the
///    canonical ratio bands {[-inf,0.9) worse, [0.9,1.1] fine, (1.1,inf)
///    better} when the comparison is a ratio.
///
/// Every candidate is analyzed against the database; invalid completions
/// are dropped. Candidates are ranked by estimated assessment support (the
/// expected number of comparable cells) with a per-benchmark-type prior.
Result<std::vector<Suggestion>> SuggestCompletions(
    const AssessStatement& partial, const StarDatabase& db,
    const FunctionRegistry& functions, const LabelingRegistry& labelings,
    int max_suggestions = 5);

}  // namespace assess

#endif  // ASSESS_ASSESS_SUGGEST_H_
