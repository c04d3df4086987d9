#ifndef ASSESS_OLAP_AGGREGATE_H_
#define ASSESS_OLAP_AGGREGATE_H_

// The one definition of each aggregation operator (AggOp), in the shape
// Gray et al. give an aggregate function: Init, Iter, Merge of
// sub-aggregates and Final, plus RollupOp for stored final values. Both
// scan kernels, the morsel merge, roll-ups and the view delta merge call
// these, so an operator's arithmetic (its addition order, which signed zero
// MIN keeps, whether a NaN survives) lives here only. The functions have
// internal linkage and Column has no member functions, so the -mavx2 kernel
// TU keeps its own copy (see scan_kernels_impl.h).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "olap/cube.h"
#include "olap/cube_schema.h"

namespace assess {
namespace agg {

/// \brief One measure's aggregation state over the groups of a scan:
/// `acc[g]` is group g's running value and, for AVG only, `cnt[g]` its row
/// count (empty for every other operator).
struct Column {
  AggOp op = AggOp::kSum;
  std::vector<double> acc;
  std::vector<int64_t> cnt;
};

namespace {

/// The identity `op` folds from: +inf for MIN, -inf for MAX, else 0.
inline double Init(AggOp op) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return op == AggOp::kMin ? kInf : op == AggOp::kMax ? -kInf : 0.0;
}

/// `acc` after folding in one row's value `v` (AVG's sum; its count is the
/// column's). MIN and MAX keep `acc` unless `v` is strictly beyond it, so a
/// NaN row is skipped and the first of equal zeros stays.
inline double Iter(AggOp op, double acc, double v) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kAvg:
      return acc + v;
    case AggOp::kMin:
      return std::min(acc, v);
    case AggOp::kMax:
      return std::max(acc, v);
    case AggOp::kCount:
      return acc + 1;
  }
  return acc;
}

/// How a stored final value of `op` re-aggregates into a coarser one. AVG
/// has no such operator (an average of averages is not the average), so it
/// is never rolled up from a finer aggregate and its views are rebuilt.
inline std::optional<AggOp> RollupOp(AggOp op) {
  if (op == AggOp::kAvg) return std::nullopt;
  return op == AggOp::kCount ? AggOp::kSum : op;
}

/// Appends a group, at the identity, to every column: the one group set-up
/// of both kernels and the merge.
inline void AppendGroup(std::vector<Column>& cols) {
  for (Column& col : cols) {
    col.acc.push_back(Init(col.op));
    if (col.op == AggOp::kAvg) col.cnt.push_back(0);
  }
}

/// Folds one row's value `v` into group `g`.
inline void Iter(Column& col, int32_t g, double v) {
  col.acc[g] = Iter(col.op, col.acc[g], v);
  if (col.op == AggOp::kAvg) col.cnt[g] += 1;
}

/// Folds group `fg` of the sub-aggregate `from` into group `g` of `into`,
/// the earlier part on the left: values re-aggregate by RollupOp, and AVG's
/// sum and count each add.
inline void Merge(Column& into, int32_t g, const Column& from, int32_t fg) {
  into.acc[g] = Iter(RollupOp(into.op).value_or(AggOp::kSum), into.acc[g],
                     from.acc[fg]);
  if (into.op == AggOp::kAvg) into.cnt[g] += from.cnt[fg];
}

/// Every group's stored value, moved out of `col`: AVG divides its sum by
/// its count (kNullMeasure for no rows), and every NaN leaves as
/// kNullMeasure. The sign and payload of a NaN sum are the first NaN
/// operand's on x86, and the compiler may swap the operands of an add, so
/// two kernel TUs can disagree on them; the NaN-ness itself cannot.
inline std::vector<double> Final(Column& col) {
  for (size_t g = 0; g < col.acc.size(); ++g) {
    double v = col.acc[g];
    if (col.op == AggOp::kAvg) {
      v = col.cnt[g] > 0 ? v / col.cnt[g] : kNullMeasure;
    }
    col.acc[g] = std::isnan(v) ? kNullMeasure : v;
  }
  return std::move(col.acc);
}

}  // namespace
}  // namespace agg
}  // namespace assess

#endif  // ASSESS_OLAP_AGGREGATE_H_
