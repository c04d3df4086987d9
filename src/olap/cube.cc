#include "olap/cube.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <numeric>
#include <sstream>

#include "common/str_util.h"

namespace assess {

bool IsNullMeasure(double v) { return std::isnan(v); }

Cube::Cube(std::vector<LevelRef> levels, std::vector<std::string> measure_names)
    : levels_(std::move(levels)),
      coords_(levels_.size()),
      measure_names_(std::move(measure_names)),
      measures_(measure_names_.size()) {}

Cube Cube::FromColumns(std::vector<LevelRef> levels,
                       std::vector<std::vector<MemberId>> coord_columns,
                       std::vector<std::string> measure_names,
                       std::vector<std::vector<double>> measure_columns) {
  Cube cube;
  cube.levels_ = std::move(levels);
  cube.coords_ = std::move(coord_columns);
  cube.measure_names_ = std::move(measure_names);
  cube.measures_ = std::move(measure_columns);
  return cube;
}

Result<int> Cube::LevelPosition(std::string_view level_name) const {
  for (int i = 0; i < level_count(); ++i) {
    if (levels_[i].name() == level_name) return i;
  }
  return Status::NotFound("no axis '" + std::string(level_name) +
                          "' in this cube");
}

Result<int> Cube::MeasureIndex(std::string_view name) const {
  for (int i = 0; i < measure_count(); ++i) {
    if (measure_names_[i] == name) return i;
  }
  return Status::NotFound("no measure '" + std::string(name) +
                          "' in this cube");
}

int Cube::AddMeasureColumn(std::string name) {
  int index = static_cast<int>(measure_names_.size());
  measure_names_.push_back(std::move(name));
  measures_.emplace_back(NumRows(), kNullMeasure);
  return index;
}

void Cube::AddRow(const std::vector<MemberId>& coords,
                  const std::vector<double>& measures) {
  for (size_t i = 0; i < coords_.size(); ++i) coords_[i].push_back(coords[i]);
  for (size_t i = 0; i < measures_.size(); ++i) {
    measures_[i].push_back(i < measures.size() ? measures[i] : kNullMeasure);
  }
  if (!labels_.empty()) labels_.emplace_back();
}

void Cube::SortByCoordinates() {
  int64_t n = NumRows();
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int64_t a, int64_t b) {
    for (const auto& col : coords_) {
      if (col[a] != col[b]) return col[a] < col[b];
    }
    return false;
  });
  auto permute = [&order, n](auto& col) {
    using Col = std::remove_reference_t<decltype(col)>;
    Col next(col.size());
    for (int64_t i = 0; i < n; ++i) next[i] = col[order[i]];
    col = std::move(next);
  };
  for (auto& col : coords_) permute(col);
  for (auto& col : measures_) permute(col);
  if (!labels_.empty()) permute(labels_);
}

std::string Cube::ToString(int64_t max_rows) const {
  std::ostringstream out;
  for (int i = 0; i < level_count(); ++i) {
    if (i > 0) out << " | ";
    out << levels_[i].name();
  }
  for (int i = 0; i < measure_count(); ++i) {
    out << " | " << measure_names_[i];
  }
  if (!labels_.empty()) out << " | label";
  out << "\n";
  int64_t n = std::min<int64_t>(NumRows(), max_rows);
  for (int64_t r = 0; r < n; ++r) {
    for (int i = 0; i < level_count(); ++i) {
      if (i > 0) out << " | ";
      out << CoordName(r, i);
    }
    for (int i = 0; i < measure_count(); ++i) {
      double v = MeasureAt(r, i);
      out << " | " << (IsNullMeasure(v) ? "null" : FormatNumber(v));
    }
    if (!labels_.empty()) out << " | " << labels_[r];
    out << "\n";
  }
  if (NumRows() > n) {
    out << "... (" << (NumRows() - n) << " more cells)\n";
  }
  return out.str();
}

namespace {

// Quotes a CSV field when needed (RFC 4180 style).
void WriteCsvField(std::ostream& out, const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    out << field;
    return;
  }
  out << '"';
  for (char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace

void Cube::WriteCsv(std::ostream& out) const {
  bool first = true;
  auto sep = [&out, &first]() {
    if (!first) out << ',';
    first = false;
  };
  for (const LevelRef& level : levels_) {
    sep();
    WriteCsvField(out, level.name());
  }
  for (const std::string& name : measure_names_) {
    sep();
    WriteCsvField(out, name);
  }
  if (!labels_.empty()) {
    sep();
    out << "label";
  }
  out << '\n';
  for (int64_t r = 0; r < NumRows(); ++r) {
    first = true;
    for (int i = 0; i < level_count(); ++i) {
      sep();
      WriteCsvField(out, CoordName(r, i));
    }
    for (int m = 0; m < measure_count(); ++m) {
      sep();
      double v = MeasureAt(r, m);
      if (!IsNullMeasure(v)) out << FormatNumber(v);
    }
    if (!labels_.empty()) {
      sep();
      WriteCsvField(out, labels_[r]);
    }
    out << '\n';
  }
}

// ---------------------------------------------------------------------------
// CoordinateIndex
// ---------------------------------------------------------------------------

namespace {
// Even, so the probe keys of an (odd) key never reach the empty key 0.
constexpr uint64_t kProbeStep = 0x9E3779B97F4A7C16ULL;
}  // namespace

CoordinateIndex::CoordinateIndex(const Cube& cube,
                                 std::vector<int> key_positions)
    : cube_(&cube),
      key_positions_(std::move(key_positions)),
      buckets_(cube.NumRows()) {
  // A dense bucket id per row, numbered in order of first appearance. Keys
  // hash the coordinates, so a bucket is confirmed against its first row.
  const int64_t n = cube.NumRows();
  std::vector<int32_t> bucket_of(n), first_row;
  for (int64_t row = 0; row < n; ++row) {
    for (uint64_t key = KeyOf(cube, key_positions_, row);; key += kProbeStep) {
      bool inserted = false;
      const int32_t b = buckets_.FindOrInsert(
          key, static_cast<int32_t>(first_row.size()), &inserted);
      if (inserted) first_row.push_back(static_cast<int32_t>(row));
      if (inserted || SameCoords(cube, key_positions_, row, first_row[b])) {
        bucket_of[row] = b;
        break;
      }
    }
  }
  // Counting sort by bucket. Filling each bucket from its end, rows in
  // reverse, keeps it ascending and leaves offsets_[b] at its start.
  offsets_.assign(first_row.size() + 1, 0);
  for (int32_t b : bucket_of) ++offsets_[b];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  rows_.resize(n);
  for (int64_t row = n - 1; row >= 0; --row) {
    rows_[--offsets_[bucket_of[row]]] = static_cast<int32_t>(row);
  }
}

uint64_t CoordinateIndex::KeyOf(const Cube& cube,
                                const std::vector<int>& positions,
                                int64_t row) {
  uint64_t key = 0;
  for (int pos : positions) {
    key = (key ^ static_cast<uint32_t>(cube.CoordAt(row, pos))) *
          0x9E3779B97F4A7C15ULL;
  }
  return key | 1;
}

bool CoordinateIndex::SameCoords(const Cube& probe,
                                 const std::vector<int>& positions,
                                 int64_t row, int32_t indexed_row) const {
  for (size_t i = 0; i < positions.size(); ++i) {
    if (probe.CoordAt(row, positions[i]) !=
        cube_->CoordAt(indexed_row, key_positions_[i])) {
      return false;
    }
  }
  return true;
}

std::span<const int32_t> CoordinateIndex::Lookup(
    const Cube& probe, const std::vector<int>& probe_positions,
    int64_t row) const {
  for (uint64_t key = KeyOf(probe, probe_positions, row);; key += kProbeStep) {
    const int32_t b = buckets_.Find(key);
    if (b < 0) return {};
    const int32_t begin = offsets_[b];
    if (SameCoords(probe, probe_positions, row, rows_[begin])) {
      return std::span(rows_).subspan(begin, offsets_[b + 1] - begin);
    }
  }
}

}  // namespace assess
