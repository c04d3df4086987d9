#include "assess/wire_format.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/flat_map64.h"
#include "common/wire_codec.h"
#include "olap/hierarchy.h"

namespace assess {
namespace {

constexpr char kResultMagic = 'A';
constexpr char kStatusMagic = 'S';
constexpr uint8_t kVersion = 0x01;
// Cap on the members a decoded dictionary reserves before it fills.
constexpr uint64_t kMaxReservedMembers = uint64_t{1} << 16;

// ---------------------------------------------------------------------------
// Cube
// ---------------------------------------------------------------------------

/// One axis's local dictionary: member names indexed by first appearance, so
/// only the members actually present in the result travel.
struct LevelDictionary {
  std::vector<MemberId> members;    // dictionary index -> member id
  std::vector<uint32_t> local_ids;  // row -> dictionary index
  size_t bytes = 0;                 // encoded size of the axis's bytes
};

LevelDictionary BuildDictionary(const Cube& cube, int l) {
  const LevelRef& level = cube.level(l);
  const std::vector<MemberId>& column = cube.coord_column(l);
  LevelDictionary dict;
  dict.local_ids.resize(column.size());
  // Sized to the result, not to Dom(level): a 3-row result on a large
  // dimension costs a few entries, not one per member of the level.
  FlatMap64 to_local(std::min<int64_t>(static_cast<int64_t>(column.size()),
                                       level.cardinality()));
  for (size_t r = 0; r < column.size(); ++r) {
    bool inserted = false;
    // Key = id + 1 (over the id's 32 bits): FlatMap64 reserves key 0.
    const int32_t local = to_local.FindOrInsert(
        static_cast<uint64_t>(static_cast<uint32_t>(column[r])) + 1,
        static_cast<int32_t>(dict.members.size()), &inserted);
    if (inserted) dict.members.push_back(column[r]);
    dict.local_ids[r] = static_cast<uint32_t>(local);
    dict.bytes += VarintLength(static_cast<uint32_t>(local));
  }
  dict.bytes += StringLength(level.hierarchy->name()) +
                StringLength(level.name()) + VarintLength(dict.members.size());
  for (MemberId id : dict.members) {
    dict.bytes += StringLength(level.hierarchy->MemberName(level.level, id));
  }
  return dict;
}

/// Encoded size of `cube` given its axes' dictionaries, so the output is
/// reserved once.
size_t CubeBytes(const Cube& cube, const std::vector<LevelDictionary>& dicts) {
  const size_t n_rows = static_cast<size_t>(cube.NumRows());
  size_t bytes = VarintLength(dicts.size()) + VarintLength(n_rows) +
                 VarintLength(cube.measure_count()) + 1;
  for (const LevelDictionary& dict : dicts) bytes += dict.bytes;
  for (int m = 0; m < cube.measure_count(); ++m) {
    bytes += StringLength(cube.measure_name(m)) + 8 * n_rows;
  }
  for (const std::string& label : cube.labels()) bytes += StringLength(label);
  return bytes;
}

void SerializeCube(const Cube& cube, const std::vector<LevelDictionary>& dicts,
                   std::string* out) {
  const int n_levels = cube.level_count();
  const int64_t n_rows = cube.NumRows();
  PutVarint(out, static_cast<uint64_t>(n_levels));
  for (int l = 0; l < n_levels; ++l) {
    const LevelRef& level = cube.level(l);
    PutString(out, level.hierarchy->name());
    PutString(out, level.name());
    PutVarint(out, dicts[l].members.size());
    for (MemberId id : dicts[l].members) {
      PutString(out, level.hierarchy->MemberName(level.level, id));
    }
  }

  PutVarint(out, static_cast<uint64_t>(n_rows));
  for (const LevelDictionary& dict : dicts) {
    for (uint32_t id : dict.local_ids) PutVarint(out, id);
  }

  PutVarint(out, static_cast<uint64_t>(cube.measure_count()));
  for (int m = 0; m < cube.measure_count(); ++m) {
    PutString(out, cube.measure_name(m));
  }
  for (int m = 0; m < cube.measure_count(); ++m) {
    PutDoubles(out, cube.measure_column(m).data(),
               static_cast<size_t>(n_rows));
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
    // The count is bounded by the payload, but a member costs more in
    // memory than on the wire, so the up-front reservation is capped too.
    hierarchy->ReserveMembers(
        level_index,
        static_cast<int64_t>(std::min(dict_size, kMaxReservedMembers)));
    for (uint64_t d = 0; d < dict_size; ++d) {
      std::string_view member;
      ASSESS_RETURN_NOT_OK(reader->GetStringView(&member));
      // Coordinates are range-checked against dict_size below, so every
      // name must intern to its own dictionary position.
      if (hierarchy->AddMember(level_index, member) !=
          static_cast<MemberId>(d)) {
        return Status::InvalidArgument("wire: duplicate dictionary member");
      }
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
    ASSESS_RETURN_NOT_OK(
        reader->GetDoubles(measures[m].data(), static_cast<size_t>(n_rows)));
  }

  Cube cube = Cube::FromColumns(std::move(levels), std::move(coords),
                                std::move(measure_names), std::move(measures));

  uint8_t has_labels = 0;
  ASSESS_RETURN_NOT_OK(reader->GetByte(&has_labels));
  if (has_labels > 1) {
    return Status::InvalidArgument("wire: bad labels flag");
  }
  if (has_labels) {
    std::vector<std::string> labels;
    labels.reserve(static_cast<size_t>(n_rows));
    for (uint64_t r = 0; r < n_rows; ++r) {
      std::string_view label;
      ASSESS_RETURN_NOT_OK(reader->GetStringView(&label));
      labels.emplace_back(label);
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
  const Cube& cube = result.cube;
  std::vector<LevelDictionary> dicts;
  dicts.reserve(static_cast<size_t>(cube.level_count()));
  for (int l = 0; l < cube.level_count(); ++l) {
    dicts.push_back(BuildDictionary(cube, l));
  }
  // Magic, version and plan bytes, then the seven timings.
  size_t bytes = 3 + 7 * 8 + StringLength(result.measure) +
                 StringLength(result.benchmark_measure) +
                 StringLength(result.comparison_measure) +
                 VarintLength(result.sql.size()) + CubeBytes(cube, dicts);
  for (const std::string& sql : result.sql) bytes += StringLength(sql);

  std::string out;
  out.reserve(bytes);
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
  SerializeCube(cube, dicts, &out);
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
