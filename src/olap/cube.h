#ifndef ASSESS_OLAP_CUBE_H_
#define ASSESS_OLAP_CUBE_H_

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map64.h"
#include "common/result.h"
#include "olap/cube_schema.h"
#include "olap/group_by_set.h"

namespace assess {

/// \brief One axis of a derived cube: a level of some hierarchy.
struct LevelRef {
  std::shared_ptr<Hierarchy> hierarchy;
  int level = 0;

  const std::string& name() const { return hierarchy->level_name(level); }
  int32_t cardinality() const { return hierarchy->LevelCardinality(level); }
};

/// \brief The "null" measure value used for non-matching cells of assess*
/// (left-outer join) results. Cubes are partial functions, so absence is a
/// first-class concept; NaN encodes it in measure columns.
inline constexpr double kNullMeasure =
    std::numeric_limits<double>::quiet_NaN();

bool IsNullMeasure(double v);

/// \brief A derived cube (Definition 2.6): a partial function from
/// coordinates of a group-by set to tuples of measure values.
///
/// Storage is columnar: one MemberId vector per group-by level and one
/// double vector per measure, all row-aligned; a row is a cell. An optional
/// label column carries the nominal labels added by the labeling step.
/// The closure property of the logical algebra (Section 4.2) is realized by
/// every operator consuming and producing this type.
class Cube {
 public:
  Cube() = default;

  /// \brief Creates an empty cube with the given axes and measure names.
  Cube(std::vector<LevelRef> levels, std::vector<std::string> measure_names);

  /// \brief Builds a cube directly from row-aligned columns (the engine's
  /// zero-copy output path). All columns must have equal length.
  static Cube FromColumns(std::vector<LevelRef> levels,
                          std::vector<std::vector<MemberId>> coord_columns,
                          std::vector<std::string> measure_names,
                          std::vector<std::vector<double>> measure_columns);

  // -- Schema ----------------------------------------------------------

  int level_count() const { return static_cast<int>(levels_.size()); }
  const LevelRef& level(int i) const { return levels_[i]; }
  const std::vector<LevelRef>& levels() const { return levels_; }

  /// \brief Index of the axis named `level_name`, or error.
  Result<int> LevelPosition(std::string_view level_name) const;

  int measure_count() const { return static_cast<int>(measure_names_.size()); }
  const std::string& measure_name(int i) const { return measure_names_[i]; }
  Result<int> MeasureIndex(std::string_view name) const;

  /// \brief Appends a new, NaN-filled measure column; returns its index.
  /// This is how the transform operators "monotonically add new measures".
  int AddMeasureColumn(std::string name);

  // -- Cells ------------------------------------------------------------

  int64_t NumRows() const {
    return coords_.empty()
               ? static_cast<int64_t>(measures_.empty()
                                          ? 0
                                          : measures_[0].size())
               : static_cast<int64_t>(coords_[0].size());
  }

  /// \brief Appends a cell; `coords` and `measures` must match the arity.
  void AddRow(const std::vector<MemberId>& coords,
              const std::vector<double>& measures);

  MemberId CoordAt(int64_t row, int level_pos) const {
    return coords_[level_pos][row];
  }
  const std::string& CoordName(int64_t row, int level_pos) const {
    const LevelRef& l = levels_[level_pos];
    return l.hierarchy->MemberName(l.level, coords_[level_pos][row]);
  }
  double MeasureAt(int64_t row, int measure_idx) const {
    return measures_[measure_idx][row];
  }
  void SetMeasure(int64_t row, int measure_idx, double v) {
    measures_[measure_idx][row] = v;
  }

  const std::vector<MemberId>& coord_column(int level_pos) const {
    return coords_[level_pos];
  }
  const std::vector<double>& measure_column(int measure_idx) const {
    return measures_[measure_idx];
  }
  std::vector<double>& mutable_measure_column(int measure_idx) {
    return measures_[measure_idx];
  }

  // -- Labels -----------------------------------------------------------

  bool has_labels() const { return !labels_.empty() || NumRows() == 0; }
  void SetLabels(std::vector<std::string> labels) {
    labels_ = std::move(labels);
  }
  const std::vector<std::string>& labels() const { return labels_; }

  // -- Ordering / rendering ---------------------------------------------

  /// \brief Sorts cells lexicographically by coordinate; canonical form for
  /// result comparison in tests and for stable printing.
  void SortByCoordinates();

  /// \brief Multi-line table rendering (coordinates, measures, labels).
  std::string ToString(int64_t max_rows = 20) const;

  /// \brief Writes the cube as CSV: a header row (level names, measure
  /// names, "label" when labels are present) followed by one row per cell.
  /// Fields containing separators or quotes are quoted and escaped.
  void WriteCsv(std::ostream& out) const;

 private:
  std::vector<LevelRef> levels_;
  std::vector<std::vector<MemberId>> coords_;
  std::vector<std::string> measure_names_;
  std::vector<std::vector<double>> measures_;
  std::vector<std::string> labels_;
};

/// \brief Multimap from (a subset of) a cube's coordinates to row ids, in
/// three flat arrays: a FlatMap64 from key to dense bucket id, and the CSR
/// pair `offsets_`/`rows_` holding each bucket's rows in ascending row order.
///
/// Keys hash the coordinates, and each probe is confirmed by comparing them
/// with the bucket's first row, so any arity and any member count is
/// answered. The indexed cube must outlive the index.
class CoordinateIndex {
 public:
  /// \brief Builds an index of `cube` keyed on the axes at `key_positions`.
  CoordinateIndex(const Cube& cube, std::vector<int> key_positions);

  /// \brief Rows of the indexed cube, ascending, whose key equals the key
  /// formed by `probe`'s coordinates at `probe_positions` in row `row`.
  /// Empty when no match. `probe_positions` must parallel this index's key
  /// positions.
  std::span<const int32_t> Lookup(const Cube& probe,
                                  const std::vector<int>& probe_positions,
                                  int64_t row) const;

  int64_t DistinctKeys() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }

  /// \brief The hash key of `cube`'s coordinates at `positions` in row `row`;
  /// odd, so never FlatMap64's empty key. Distinct coordinates may collide.
  static uint64_t KeyOf(const Cube& cube, const std::vector<int>& positions,
                        int64_t row);

 private:
  bool SameCoords(const Cube& probe, const std::vector<int>& positions,
                  int64_t row, int32_t indexed_row) const;

  const Cube* cube_;
  std::vector<int> key_positions_;
  FlatMap64 buckets_;             // key -> bucket id
  std::vector<int32_t> offsets_;  // bucket b: rows_[offsets_[b], offsets_[b+1])
  std::vector<int32_t> rows_;
};

}  // namespace assess

#endif  // ASSESS_OLAP_CUBE_H_
