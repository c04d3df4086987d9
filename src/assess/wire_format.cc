#include "assess/wire_format.h"

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/wire_codec.h"
#include "olap/hierarchy.h"

namespace assess {
namespace {

constexpr char kResultMagic = 'A';
constexpr char kStatusMagic = 'S';
constexpr uint8_t kVersion = 0x01;

// ---------------------------------------------------------------------------
// Cube
// ---------------------------------------------------------------------------

void SerializeCube(const Cube& cube, std::string* out) {
  const int n_levels = cube.level_count();
  const int64_t n_rows = cube.NumRows();
  PutVarint(out, static_cast<uint64_t>(n_levels));

  // Per-level local dictionaries: member names indexed by first appearance,
  // so only the members actually present in the result travel.
  std::vector<std::vector<uint32_t>> local_ids(n_levels);
  for (int l = 0; l < n_levels; ++l) {
    const LevelRef& level = cube.level(l);
    PutString(out, level.hierarchy->name());
    PutString(out, level.name());
    std::unordered_map<MemberId, uint32_t> to_local;
    std::vector<MemberId> dict;
    local_ids[l].reserve(static_cast<size_t>(n_rows));
    for (int64_t r = 0; r < n_rows; ++r) {
      MemberId id = cube.CoordAt(r, l);
      auto [it, inserted] =
          to_local.emplace(id, static_cast<uint32_t>(dict.size()));
      if (inserted) dict.push_back(id);
      local_ids[l].push_back(it->second);
    }
    PutVarint(out, dict.size());
    for (MemberId id : dict) {
      PutString(out, level.hierarchy->MemberName(level.level, id));
    }
  }

  PutVarint(out, static_cast<uint64_t>(n_rows));
  for (int l = 0; l < n_levels; ++l) {
    for (uint32_t id : local_ids[l]) PutVarint(out, id);
  }

  PutVarint(out, static_cast<uint64_t>(cube.measure_count()));
  for (int m = 0; m < cube.measure_count(); ++m) {
    PutString(out, cube.measure_name(m));
  }
  for (int m = 0; m < cube.measure_count(); ++m) {
    for (int64_t r = 0; r < n_rows; ++r) {
      PutDouble(out, cube.MeasureAt(r, m));
    }
  }

  const bool labels = !cube.labels().empty();
  out->push_back(labels ? 1 : 0);
  if (labels) {
    for (const std::string& label : cube.labels()) PutString(out, label);
  }
}

Result<Cube> DeserializeCube(WireReader* reader) {
  uint64_t n_levels = 0;
  ASSESS_RETURN_NOT_OK(reader->GetCount(2, &n_levels));

  std::vector<LevelRef> levels;
  std::vector<uint64_t> dict_sizes;
  levels.reserve(n_levels);
  for (uint64_t l = 0; l < n_levels; ++l) {
    std::string hierarchy_name, level_name;
    ASSESS_RETURN_NOT_OK(reader->GetString(&hierarchy_name));
    ASSESS_RETURN_NOT_OK(reader->GetString(&level_name));
    // Each axis becomes a fresh single-level hierarchy carrying exactly the
    // dictionary that traveled; see the header comment for why roll-up
    // structure above the result does not.
    auto hierarchy = std::make_shared<Hierarchy>(std::move(hierarchy_name));
    int level_index = hierarchy->AddLevel(std::move(level_name));
    uint64_t dict_size = 0;
    ASSESS_RETURN_NOT_OK(reader->GetCount(1, &dict_size));
    for (uint64_t d = 0; d < dict_size; ++d) {
      std::string member;
      ASSESS_RETURN_NOT_OK(reader->GetString(&member));
      hierarchy->AddMember(level_index, member);
    }
    dict_sizes.push_back(dict_size);
    levels.push_back(LevelRef{std::move(hierarchy), level_index});
  }

  uint64_t n_rows = 0;
  ASSESS_RETURN_NOT_OK(reader->GetCount(n_levels == 0 ? 1 : n_levels, &n_rows));
  std::vector<std::vector<MemberId>> coords(n_levels);
  for (uint64_t l = 0; l < n_levels; ++l) {
    coords[l].reserve(static_cast<size_t>(n_rows));
    for (uint64_t r = 0; r < n_rows; ++r) {
      uint64_t id = 0;
      ASSESS_RETURN_NOT_OK(reader->GetVarint(&id));
      if (id >= dict_sizes[l]) {
        return Status::InvalidArgument(
            "wire: coordinate index out of dictionary range");
      }
      coords[l].push_back(static_cast<MemberId>(id));
    }
  }

  uint64_t n_measures = 0;
  ASSESS_RETURN_NOT_OK(reader->GetCount(1, &n_measures));
  std::vector<std::string> measure_names(n_measures);
  for (uint64_t m = 0; m < n_measures; ++m) {
    ASSESS_RETURN_NOT_OK(reader->GetString(&measure_names[m]));
  }
  if (n_measures > 0 && n_rows > reader->remaining() / (8 * n_measures)) {
    return Status::InvalidArgument("wire: measure block exceeds payload");
  }
  std::vector<std::vector<double>> measures(n_measures);
  for (uint64_t m = 0; m < n_measures; ++m) {
    measures[m].resize(static_cast<size_t>(n_rows));
    for (uint64_t r = 0; r < n_rows; ++r) {
      ASSESS_RETURN_NOT_OK(reader->GetDouble(&measures[m][r]));
    }
  }

  Cube cube = Cube::FromColumns(std::move(levels), std::move(coords),
                                std::move(measure_names), std::move(measures));

  uint8_t has_labels = 0;
  ASSESS_RETURN_NOT_OK(reader->GetByte(&has_labels));
  if (has_labels > 1) {
    return Status::InvalidArgument("wire: bad labels flag");
  }
  if (has_labels) {
    std::vector<std::string> labels(static_cast<size_t>(n_rows));
    for (uint64_t r = 0; r < n_rows; ++r) {
      ASSESS_RETURN_NOT_OK(reader->GetString(&labels[r]));
    }
    cube.SetLabels(std::move(labels));
  }
  return cube;
}

}  // namespace

// ---------------------------------------------------------------------------
// AssessResult
// ---------------------------------------------------------------------------

std::string SerializeAssessResult(const AssessResult& result) {
  std::string out;
  out.push_back(kResultMagic);
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(result.plan));
  PutDouble(&out, result.timings.get_c);
  PutDouble(&out, result.timings.get_b);
  PutDouble(&out, result.timings.get_cb);
  PutDouble(&out, result.timings.transform);
  PutDouble(&out, result.timings.join);
  PutDouble(&out, result.timings.compare);
  PutDouble(&out, result.timings.label);
  PutString(&out, result.measure);
  PutString(&out, result.benchmark_measure);
  PutString(&out, result.comparison_measure);
  PutVarint(&out, result.sql.size());
  for (const std::string& sql : result.sql) PutString(&out, sql);
  SerializeCube(result.cube, &out);
  return out;
}

Result<AssessResult> DeserializeAssessResult(std::string_view data) {
  WireReader reader(data);
  uint8_t magic = 0, version = 0, plan = 0;
  ASSESS_RETURN_NOT_OK(reader.GetByte(&magic));
  ASSESS_RETURN_NOT_OK(reader.GetByte(&version));
  if (magic != static_cast<uint8_t>(kResultMagic) || version != kVersion) {
    return Status::InvalidArgument("wire: not a serialized assess result");
  }
  ASSESS_RETURN_NOT_OK(reader.GetByte(&plan));
  if (plan > static_cast<uint8_t>(PlanKind::kPOP)) {
    return Status::InvalidArgument("wire: unknown plan kind");
  }

  AssessResult result;
  result.plan = static_cast<PlanKind>(plan);
  ASSESS_RETURN_NOT_OK(reader.GetDouble(&result.timings.get_c));
  ASSESS_RETURN_NOT_OK(reader.GetDouble(&result.timings.get_b));
  ASSESS_RETURN_NOT_OK(reader.GetDouble(&result.timings.get_cb));
  ASSESS_RETURN_NOT_OK(reader.GetDouble(&result.timings.transform));
  ASSESS_RETURN_NOT_OK(reader.GetDouble(&result.timings.join));
  ASSESS_RETURN_NOT_OK(reader.GetDouble(&result.timings.compare));
  ASSESS_RETURN_NOT_OK(reader.GetDouble(&result.timings.label));
  ASSESS_RETURN_NOT_OK(reader.GetString(&result.measure));
  ASSESS_RETURN_NOT_OK(reader.GetString(&result.benchmark_measure));
  ASSESS_RETURN_NOT_OK(reader.GetString(&result.comparison_measure));
  uint64_t n_sql = 0;
  ASSESS_RETURN_NOT_OK(reader.GetCount(1, &n_sql));
  result.sql.resize(n_sql);
  for (uint64_t i = 0; i < n_sql; ++i) {
    ASSESS_RETURN_NOT_OK(reader.GetString(&result.sql[i]));
  }
  ASSESS_ASSIGN_OR_RETURN(result.cube, DeserializeCube(&reader));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("wire: trailing bytes after assess result");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

std::string SerializeStatus(const Status& status) {
  std::string out;
  out.push_back(kStatusMagic);
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(status.code()));
  PutString(&out, status.message());
  return out;
}

Status DeserializeStatus(std::string_view data, Status* out) {
  WireReader reader(data);
  uint8_t magic = 0, version = 0, code = 0;
  ASSESS_RETURN_NOT_OK(reader.GetByte(&magic));
  ASSESS_RETURN_NOT_OK(reader.GetByte(&version));
  if (magic != static_cast<uint8_t>(kStatusMagic) || version != kVersion) {
    return Status::InvalidArgument("wire: not a serialized status");
  }
  ASSESS_RETURN_NOT_OK(reader.GetByte(&code));
  if (code > static_cast<uint8_t>(kMaxStatusCode)) {
    return Status::InvalidArgument("wire: unknown status code");
  }
  std::string message;
  ASSESS_RETURN_NOT_OK(reader.GetString(&message));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("wire: trailing bytes after status");
  }
  *out = Status::FromCode(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

}  // namespace assess
