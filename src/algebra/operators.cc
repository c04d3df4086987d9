#include "algebra/operators.h"

#include <algorithm>

namespace assess {

namespace {

Result<std::vector<int>> ResolvePositions(
    const Cube& cube, const std::vector<std::string>& names) {
  std::vector<int> positions;
  positions.reserve(names.size());
  for (const std::string& name : names) {
    ASSESS_ASSIGN_OR_RETURN(int pos, cube.LevelPosition(name));
    positions.push_back(pos);
  }
  return positions;
}

Result<std::vector<int>> ResolveMeasures(
    const Cube& cube, const std::vector<std::string>& names) {
  std::vector<int> indexes;
  indexes.reserve(names.size());
  for (const std::string& name : names) {
    ASSESS_ASSIGN_OR_RETURN(int idx, cube.MeasureIndex(name));
    indexes.push_back(idx);
  }
  return indexes;
}

}  // namespace

Result<Cube> JoinCubes(const Cube& left, const Cube& right,
                       const std::vector<std::string>& join_levels,
                       const std::string& right_prefix, bool left_outer) {
  ASSESS_ASSIGN_OR_RETURN(std::vector<int> left_pos,
                          ResolvePositions(left, join_levels));
  ASSESS_ASSIGN_OR_RETURN(std::vector<int> right_pos,
                          ResolvePositions(right, join_levels));
  CoordinateIndex index(right, right_pos);

  std::vector<std::string> out_names;
  for (int m = 0; m < left.measure_count(); ++m) {
    out_names.push_back(left.measure_name(m));
  }
  for (int m = 0; m < right.measure_count(); ++m) {
    out_names.push_back(right_prefix + "." + right.measure_name(m));
  }
  Cube out(left.levels(), std::move(out_names));

  std::vector<MemberId> coords(left.level_count());
  std::vector<double> values(left.measure_count() + right.measure_count());
  for (int64_t r = 0; r < left.NumRows(); ++r) {
    const std::span<const int32_t> matches = index.Lookup(left, left_pos, r);
    if (matches.empty() && !left_outer) continue;
    for (int i = 0; i < left.level_count(); ++i) coords[i] = left.CoordAt(r, i);
    for (int m = 0; m < left.measure_count(); ++m) {
      values[m] = left.MeasureAt(r, m);
    }
    if (matches.empty()) {
      for (int m = 0; m < right.measure_count(); ++m) {
        values[left.measure_count() + m] = kNullMeasure;
      }
      out.AddRow(coords, values);
      continue;
    }
    for (int32_t match : matches) {
      for (int m = 0; m < right.measure_count(); ++m) {
        values[left.measure_count() + m] = right.MeasureAt(match, m);
      }
      out.AddRow(coords, values);
    }
  }
  return out;
}

Result<Cube> ConcatJoinCubes(
    const Cube& left, const Cube& right,
    const std::vector<std::string>& join_levels,
    const std::string& order_level, int expected,
    const std::vector<std::vector<std::string>>& slot_names,
    bool require_complete) {
  if (static_cast<int>(slot_names.size()) != expected) {
    return Status::InvalidArgument(
        "concatenating join: one renamed-measure tuple required per slot");
  }
  for (const auto& names : slot_names) {
    if (static_cast<int>(names.size()) != right.measure_count()) {
      return Status::InvalidArgument(
          "concatenating join: renamed tuple arity must match right measures");
    }
  }
  ASSESS_ASSIGN_OR_RETURN(std::vector<int> left_pos,
                          ResolvePositions(left, join_levels));
  ASSESS_ASSIGN_OR_RETURN(std::vector<int> right_pos,
                          ResolvePositions(right, join_levels));
  ASSESS_ASSIGN_OR_RETURN(int order_pos, right.LevelPosition(order_level));
  CoordinateIndex index(right, right_pos);

  std::vector<std::string> out_names;
  for (int m = 0; m < left.measure_count(); ++m) {
    out_names.push_back(left.measure_name(m));
  }
  for (const auto& names : slot_names) {
    for (const std::string& n : names) out_names.push_back(n);
  }
  Cube out(left.levels(), std::move(out_names));

  const int rm = right.measure_count();
  std::vector<MemberId> coords(left.level_count());
  std::vector<double> values(left.measure_count() + expected * rm);
  std::vector<int32_t> ordered;
  for (int64_t r = 0; r < left.NumRows(); ++r) {
    const std::span<const int32_t> matches = index.Lookup(left, left_pos, r);
    ordered.assign(matches.begin(), matches.end());
    if (static_cast<int>(ordered.size()) < expected && require_complete) {
      continue;
    }
    // Chronological slot order: sort matches by the right order level.
    std::sort(ordered.begin(), ordered.end(),
              [&right, order_pos](int32_t a, int32_t b) {
                return right.CoordAt(a, order_pos) <
                       right.CoordAt(b, order_pos);
              });
    std::fill(values.begin(), values.end(), kNullMeasure);
    for (int i = 0; i < left.level_count(); ++i) coords[i] = left.CoordAt(r, i);
    for (int m = 0; m < left.measure_count(); ++m) {
      values[m] = left.MeasureAt(r, m);
    }
    int slots = std::min<int>(expected, static_cast<int>(ordered.size()));
    for (int s = 0; s < slots; ++s) {
      for (int m = 0; m < rm; ++m) {
        values[left.measure_count() + s * rm + m] =
            right.MeasureAt(ordered[s], m);
      }
    }
    out.AddRow(coords, values);
  }
  return out;
}

Result<Cube> PivotCube(const Cube& cube, const std::string& level,
                       const std::string& reference_member,
                       const std::vector<std::string>& other_members,
                       const std::vector<std::vector<std::string>>& slot_names,
                       bool require_complete) {
  ASSESS_ASSIGN_OR_RETURN(int pivot_pos, cube.LevelPosition(level));
  const LevelRef& pivot_level = cube.level(pivot_pos);
  ASSESS_ASSIGN_OR_RETURN(MemberId ref_id,
                          pivot_level.hierarchy->MemberIdOf(
                              pivot_level.level, reference_member));
  if (slot_names.size() != other_members.size()) {
    return Status::InvalidArgument(
        "pivot: one renamed-measure tuple required per folded slice");
  }
  std::vector<int> slot_of(pivot_level.cardinality(), -1);
  for (size_t i = 0; i < other_members.size(); ++i) {
    if (static_cast<int>(slot_names[i].size()) != cube.measure_count()) {
      return Status::InvalidArgument(
          "pivot: renamed tuple arity must match the cube measures");
    }
    ASSESS_ASSIGN_OR_RETURN(MemberId id,
                            pivot_level.hierarchy->MemberIdOf(
                                pivot_level.level, other_members[i]));
    slot_of[id] = static_cast<int>(i);
  }

  std::vector<int> rest_pos;
  for (int i = 0; i < cube.level_count(); ++i) {
    if (i != pivot_pos) rest_pos.push_back(i);
  }
  CoordinateIndex index(cube, rest_pos);

  const int base = cube.measure_count();
  const int num_slices = static_cast<int>(other_members.size());
  std::vector<std::string> out_names;
  for (int m = 0; m < base; ++m) out_names.push_back(cube.measure_name(m));
  for (const auto& names : slot_names) {
    for (const std::string& n : names) out_names.push_back(n);
  }
  Cube out(cube.levels(), std::move(out_names));

  std::vector<MemberId> coords(cube.level_count());
  std::vector<double> values(base * (1 + num_slices));
  for (int64_t r = 0; r < cube.NumRows(); ++r) {
    if (cube.CoordAt(r, pivot_pos) != ref_id) continue;
    std::fill(values.begin(), values.end(), kNullMeasure);
    for (int m = 0; m < base; ++m) values[m] = cube.MeasureAt(r, m);
    int found = 0;
    for (int32_t match : index.Lookup(cube, rest_pos, r)) {
      int slot = slot_of[cube.CoordAt(match, pivot_pos)];
      if (slot < 0) continue;
      ++found;
      for (int m = 0; m < base; ++m) {
        values[base * (1 + slot) + m] = cube.MeasureAt(match, m);
      }
    }
    if (require_complete && found < num_slices) continue;
    for (int i = 0; i < cube.level_count(); ++i) coords[i] = cube.CoordAt(r, i);
    out.AddRow(coords, values);
  }
  return out;
}

Status CellTransform(Cube* cube, const std::string& name,
                     const std::vector<std::string>& inputs, const CellFn& fn,
                     bool null_propagates) {
  ASSESS_ASSIGN_OR_RETURN(std::vector<int> in_idx,
                          ResolveMeasures(*cube, inputs));
  int out_idx = cube->AddMeasureColumn(name);
  std::vector<double> args(in_idx.size());
  for (int64_t r = 0; r < cube->NumRows(); ++r) {
    bool null_input = false;
    for (size_t i = 0; i < in_idx.size(); ++i) {
      args[i] = cube->MeasureAt(r, in_idx[i]);
      if (IsNullMeasure(args[i])) null_input = true;
    }
    cube->SetMeasure(r, out_idx,
                     (null_input && null_propagates)
                         ? kNullMeasure
                         : fn(std::span<const double>(args)));
  }
  return Status::OK();
}

Status HTransform(Cube* cube, const std::string& name,
                  const std::vector<std::string>& inputs,
                  const HolisticFn& fn) {
  ASSESS_ASSIGN_OR_RETURN(std::vector<int> in_idx,
                          ResolveMeasures(*cube, inputs));
  std::vector<std::span<const double>> columns;
  columns.reserve(in_idx.size());
  for (int idx : in_idx) {
    const std::vector<double>& col = cube->measure_column(idx);
    columns.emplace_back(col.data(), col.size());
  }
  int out_idx = cube->AddMeasureColumn(name);
  std::vector<double>& out = cube->mutable_measure_column(out_idx);
  return fn(columns, std::span<double>(out.data(), out.size()));
}

Result<Cube> ProjectMeasures(
    const Cube& cube,
    const std::vector<std::pair<std::string, std::string>>& keep) {
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
  for (const auto& [src, dst] : keep) {
    ASSESS_ASSIGN_OR_RETURN(int idx, cube.MeasureIndex(src));
    names.push_back(dst);
    columns.push_back(cube.measure_column(idx));
  }
  std::vector<std::vector<MemberId>> coords;
  coords.reserve(cube.level_count());
  for (int i = 0; i < cube.level_count(); ++i) {
    coords.push_back(cube.coord_column(i));
  }
  return Cube::FromColumns(cube.levels(), std::move(coords), std::move(names),
                           std::move(columns));
}

void AddConstantMeasure(Cube* cube, const std::string& name, double value) {
  int idx = cube->AddMeasureColumn(name);
  std::vector<double>& col = cube->mutable_measure_column(idx);
  std::fill(col.begin(), col.end(), value);
}

Cube TransferToClient(const Cube& cube) {
  // Row-wise materialization, mirroring how a DBMS result set reaches the
  // client (cursor rows, not columnar blocks). The cost is proportional to
  // the cells transferred, which is what makes plans that avoid shipping
  // non-matching tuples (JOP/POP) cheaper than NP — the effect Section 6.2
  // attributes the NP overhead to.
  std::vector<std::string> names;
  names.reserve(cube.measure_count());
  for (int m = 0; m < cube.measure_count(); ++m) {
    names.push_back(cube.measure_name(m));
  }
  Cube out(cube.levels(), std::move(names));
  std::vector<MemberId> row_coords(cube.level_count());
  std::vector<double> row_measures(cube.measure_count());
  for (int64_t r = 0; r < cube.NumRows(); ++r) {
    for (int i = 0; i < cube.level_count(); ++i) {
      row_coords[i] = cube.CoordAt(r, i);
    }
    for (int m = 0; m < cube.measure_count(); ++m) {
      row_measures[m] = cube.MeasureAt(r, m);
    }
    out.AddRow(row_coords, row_measures);
  }
  return out;
}

}  // namespace assess
