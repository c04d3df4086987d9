// The compact binary wire format for AssessResult and Status: exact
// round-trips (including NaN measures, labels, empty cubes), independence
// from the producer's member-id assignment, and totality of the
// deserializers over truncated and garbage bytes — this is the payload
// format of the assessd protocol, tested here with no server involved.

#include "assess/wire_format.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "assess/session.h"
#include "common/rng.h"
#include "common/wire_codec.h"
#include "olap/hierarchy.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;

AssessResult MakeHandcraftedResult() {
  auto dates = std::make_shared<Hierarchy>("Date");
  int month = dates->AddLevel("month");
  dates->AddMember(month, "1997-01");
  dates->AddMember(month, "1997-02");
  dates->AddMember(month, "1997-03");
  auto stores = std::make_shared<Hierarchy>("Store");
  int country = stores->AddLevel("country");
  stores->AddMember(country, "Italy");
  stores->AddMember(country, "France");

  // Deliberately reference members out of id order so the re-dictionarized
  // encoding is exercised.
  Cube cube = Cube::FromColumns(
      {LevelRef{dates, month}, LevelRef{stores, country}},
      {{2, 0, 2, 1}, {1, 1, 0, 0}},
      {"sales", "benchmark.sales", "delta"},
      {{10.5, -3.25, 0.0, 7.0},
       {kNullMeasure, 1e300, -0.0, 42.0},
       {1.0, 2.0, kNullMeasure, std::numeric_limits<double>::infinity()}});
  cube.SetLabels({"good", "bad", "", "good"});

  AssessResult result;
  result.cube = std::move(cube);
  result.measure = "sales";
  result.benchmark_measure = "benchmark.sales";
  result.comparison_measure = "delta";
  result.plan = PlanKind::kJOP;
  result.timings.get_c = 0.25;
  result.timings.get_cb = 1.5;
  result.timings.label = 0.0625;
  result.sql = {"SELECT month, country FROM sales", "SELECT 1"};
  return result;
}

void ExpectResultsIdentical(const AssessResult& a, const AssessResult& b) {
  EXPECT_EQ(a.measure, b.measure);
  EXPECT_EQ(a.benchmark_measure, b.benchmark_measure);
  EXPECT_EQ(a.comparison_measure, b.comparison_measure);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.sql, b.sql);
  EXPECT_EQ(a.timings.Total(), b.timings.Total());
  EXPECT_EQ(a.timings.get_c, b.timings.get_c);
  EXPECT_EQ(a.timings.get_cb, b.timings.get_cb);

  const Cube& lhs = a.cube;
  const Cube& rhs = b.cube;
  ASSERT_EQ(lhs.level_count(), rhs.level_count());
  ASSERT_EQ(lhs.measure_count(), rhs.measure_count());
  ASSERT_EQ(lhs.NumRows(), rhs.NumRows());
  for (int l = 0; l < lhs.level_count(); ++l) {
    EXPECT_EQ(lhs.level(l).name(), rhs.level(l).name());
    EXPECT_EQ(lhs.level(l).hierarchy->name(), rhs.level(l).hierarchy->name());
    for (int64_t r = 0; r < lhs.NumRows(); ++r) {
      // Coordinates compare by member *name*: ids may legitimately differ
      // (the wire dictionary indexes by first appearance).
      EXPECT_EQ(lhs.CoordName(r, l), rhs.CoordName(r, l));
    }
  }
  for (int m = 0; m < lhs.measure_count(); ++m) {
    EXPECT_EQ(lhs.measure_name(m), rhs.measure_name(m));
    for (int64_t r = 0; r < lhs.NumRows(); ++r) {
      double x = lhs.MeasureAt(r, m), y = rhs.MeasureAt(r, m);
      // Bit-identity, which distinguishes -0.0 and covers NaN.
      EXPECT_EQ(std::signbit(x), std::signbit(y));
      EXPECT_EQ(std::isnan(x), std::isnan(y));
      if (!std::isnan(x)) {
        EXPECT_EQ(x, y);
      }
    }
  }
  EXPECT_EQ(lhs.labels(), rhs.labels());
  // The user-facing renderings agree exactly.
  EXPECT_EQ(a.ToString(100), b.ToString(100));
  std::ostringstream lhs_csv, rhs_csv;
  a.WriteCsv(lhs_csv);
  b.WriteCsv(rhs_csv);
  EXPECT_EQ(lhs_csv.str(), rhs_csv.str());
}

TEST(WireFormatTest, HandcraftedResultRoundTrips) {
  AssessResult original = MakeHandcraftedResult();
  std::string bytes = SerializeAssessResult(original);
  auto decoded = DeserializeAssessResult(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectResultsIdentical(original, *decoded);
}

// The encoding of MakeHandcraftedResult(), captured from the byte-at-a-time
// encoder rather than from the codec under test. Any change to these bytes
// breaks interoperability with deployed peers, so it needs a version bump.
constexpr char kHandcraftedGoldenHex[] =
    "410101000000000000d03f0000000000000000000000000000f83f0000000000"
    "00000000000000000000000000000000000000000000000000b03f0573616c65"
    "730f62656e63686d61726b2e73616c65730564656c7461022053454c45435420"
    "6d6f6e74682c20636f756e7472792046524f4d2073616c65730853454c454354"
    "2031020444617465056d6f6e74680307313939372d303307313939372d303107"
    "313939372d30320553746f726507636f756e74727902064672616e6365054974"
    "616c79040001000200000101030573616c65730f62656e63686d61726b2e7361"
    "6c65730564656c746100000000000025400000000000000ac000000000000000"
    "000000000000001c40000000000000f87f9c7500883ce4377e00000000000000"
    "800000000000004540000000000000f03f0000000000000040000000000000f8"
    "7f000000000000f07f0104676f6f64036261640004676f6f64";

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(WireFormatTest, EncodingMatchesGoldenBytes) {
  const std::string golden = FromHex(kHandcraftedGoldenHex);
  ASSERT_EQ(golden.size(), 345u);
  EXPECT_EQ(SerializeAssessResult(MakeHandcraftedResult()), golden);
  // And the golden bytes decode to the same result.
  auto decoded = DeserializeAssessResult(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectResultsIdentical(MakeHandcraftedResult(), *decoded);
}

TEST(WireFormatTest, ReserializationIsStable) {
  AssessResult original = MakeHandcraftedResult();
  std::string bytes = SerializeAssessResult(original);
  auto decoded = DeserializeAssessResult(bytes);
  ASSERT_TRUE(decoded.ok());
  // decode(encode(x)) re-encodes to the same bytes: the local dictionary
  // order is canonical (first appearance), so the format is a fixpoint.
  EXPECT_EQ(SerializeAssessResult(*decoded), bytes);
}

TEST(WireFormatTest, RealSessionResultRoundTrips) {
  testutil::MiniDb mini = BuildMiniSales();
  AssessSession session(mini.db.get());
  auto result = session.Query(
      "with SALES for country = 'Italy' by product, country assess quantity "
      "against country = 'France' labels quartiles");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto decoded = DeserializeAssessResult(SerializeAssessResult(*result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectResultsIdentical(*result, *decoded);
}

TEST(WireFormatTest, EmptyCubeRoundTrips) {
  AssessResult result;
  result.measure = "m";
  std::string bytes = SerializeAssessResult(result);
  auto decoded = DeserializeAssessResult(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->cube.NumRows(), 0);
  EXPECT_EQ(decoded->cube.level_count(), 0);
  EXPECT_EQ(decoded->measure, "m");
}

TEST(WireFormatTest, StatusRoundTripsEveryCode) {
  const Status cases[] = {
      Status::InvalidArgument("syntax error at 'frobnicate'"),
      Status::NotFound("no cube 'NOPE'"),
      Status::AlreadyExists("dup"),
      Status::OutOfRange("row 9"),
      Status::NotSupported("POP infeasible"),
      Status::Internal("invariant"),
      Status::Unavailable("server overloaded"),
      Status::Timeout("deadline exceeded"),
      Status::CorruptFrame("crc mismatch"),
      Status::FrameTooLarge("17 MiB > 16 MiB cap"),
      Status::OK(),
  };
  for (const Status& original : cases) {
    Status decoded = Status::Internal("sentinel");
    Status parse = DeserializeStatus(SerializeStatus(original), &decoded);
    ASSERT_TRUE(parse.ok()) << parse.ToString();
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
}

// Property-style: random cubes whose measures are drawn from the IEEE-754
// corner set (NaN, +/-inf, -0.0, denormal, huge) must round-trip
// bit-exactly, including empty results. Seeded, so failures reproduce.
TEST(WireFormatTest, SpecialFloatMeasuresRoundTripExactly) {
  auto dates = std::make_shared<Hierarchy>("Date");
  int month = dates->AddLevel("month");
  for (int m = 0; m < 12; ++m) {
    dates->AddMember(month, "1997-" + std::to_string(m + 1));
  }
  const double corner[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           -0.0,
                           0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::max(),
                           1.0,
                           kNullMeasure};
  constexpr size_t kCorners = sizeof(corner) / sizeof(corner[0]);

  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed * 0x9E37 + 11);
    int64_t rows = static_cast<int64_t>(rng.Uniform(13));  // 0..12: empty too
    int measures = 1 + static_cast<int>(rng.Uniform(3));
    std::vector<std::vector<int32_t>> coords(1);
    for (int64_t r = 0; r < rows; ++r) {
      coords[0].push_back(static_cast<int32_t>(r));
    }
    std::vector<std::string> names;
    std::vector<std::vector<double>> values(measures);
    for (int m = 0; m < measures; ++m) {
      names.push_back("m" + std::to_string(m));
      for (int64_t r = 0; r < rows; ++r) {
        values[m].push_back(corner[rng.Uniform(kCorners)]);
      }
    }
    AssessResult original;
    original.cube = Cube::FromColumns({LevelRef{dates, month}}, coords,
                                      names, values);
    original.measure = "m0";

    auto decoded = DeserializeAssessResult(SerializeAssessResult(original));
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": "
                              << decoded.status().ToString();
    ASSERT_EQ(decoded->cube.NumRows(), rows) << "seed " << seed;
    for (int m = 0; m < measures; ++m) {
      for (int64_t r = 0; r < rows; ++r) {
        double want = original.cube.MeasureAt(r, m);
        double got = decoded->cube.MeasureAt(r, m);
        // Bit-exact, not value-equal: distinguishes -0.0 from 0.0 and
        // compares NaN payloads.
        uint64_t want_bits, got_bits;
        std::memcpy(&want_bits, &want, sizeof(want));
        std::memcpy(&got_bits, &got, sizeof(got));
        ASSERT_EQ(want_bits, got_bits)
            << "seed " << seed << " row " << r << " measure " << m;
      }
    }
    // And the re-encoding is a fixpoint even for special values.
    EXPECT_EQ(SerializeAssessResult(*decoded), SerializeAssessResult(original))
        << "seed " << seed;
  }
}

TEST(WireFormatTest, EveryTruncationFailsGracefully) {
  std::string bytes = SerializeAssessResult(MakeHandcraftedResult());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DeserializeAssessResult(std::string_view(bytes).substr(
        0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  std::string status_bytes = SerializeStatus(Status::NotFound("x"));
  for (size_t len = 0; len < status_bytes.size(); ++len) {
    Status out = Status::OK();
    EXPECT_FALSE(
        DeserializeStatus(std::string_view(status_bytes).substr(0, len), &out)
            .ok());
  }
}

TEST(WireFormatTest, TrailingBytesRejected) {
  std::string bytes = SerializeAssessResult(MakeHandcraftedResult());
  bytes.push_back('\0');
  EXPECT_FALSE(DeserializeAssessResult(bytes).ok());
}

TEST(WireFormatTest, GarbageBytesFailGracefully) {
  // Deterministic fuzz: random buffers and bit-flipped valid encodings must
  // error out, never crash or allocate unboundedly.
  Rng rng(20260806);
  std::string valid = SerializeAssessResult(MakeHandcraftedResult());
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(static_cast<size_t>(rng.UniformRange(0, 64)), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformRange(0, 255));
    }
    (void)DeserializeAssessResult(garbage);
    Status out = Status::OK();
    (void)DeserializeStatus(garbage, &out);

    std::string flipped = valid;
    size_t at = static_cast<size_t>(rng.UniformRange(
        0, static_cast<int64_t>(flipped.size()) - 1));
    flipped[at] = static_cast<char>(flipped[at] ^
                                    (1 << rng.UniformRange(0, 7)));
    auto decoded = DeserializeAssessResult(flipped);
    if (decoded.ok()) {
      // A flipped measure bit can still decode; it must then round-trip.
      EXPECT_EQ(SerializeAssessResult(*decoded).size(), flipped.size());
    }
  }
}

TEST(WireFormatTest, HostileCountsDoNotAllocate) {
  // A result header claiming 2^40 levels must be rejected by the byte
  // budget check, not by an allocation attempt.
  std::string bytes;
  bytes.push_back('A');
  bytes.push_back(0x01);
  bytes.push_back(0x00);                   // plan NP
  bytes.append(7 * 8, '\0');               // timings
  bytes.append(3, '\0');                   // three empty strings
  bytes.push_back(0x00);                   // no sql
  // n_levels = huge varint
  bytes.append({'\xff', '\xff', '\xff', '\xff', '\xff', '\x1f'});
  auto decoded = DeserializeAssessResult(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("count exceeds"),
            std::string::npos)
      << decoded.status().ToString();
}

/// Hand-encodes a kResult payload with no SQL and zero timings around one
/// cube whose axes carry the given dictionaries and coordinate columns, so
/// tests can state dictionaries the encoder would never produce.
std::string EncodeRawResult(const std::vector<std::vector<std::string>>& dicts,
                            const std::vector<std::vector<uint64_t>>& coords,
                            const std::vector<double>& measure,
                            bool with_labels) {
  std::string bytes;
  bytes.push_back('A');
  bytes.push_back(0x01);
  bytes.push_back(0x00);        // plan NP
  bytes.append(7 * 8, '\0');    // timings
  bytes.append(3, '\0');        // three empty strings
  bytes.push_back(0x00);        // no sql
  PutVarint(&bytes, dicts.size());
  for (size_t l = 0; l < dicts.size(); ++l) {
    PutString(&bytes, "H" + std::to_string(l));
    PutString(&bytes, "l" + std::to_string(l));
    PutVarint(&bytes, dicts[l].size());
    for (const std::string& name : dicts[l]) PutString(&bytes, name);
  }
  PutVarint(&bytes, measure.size());
  for (const std::vector<uint64_t>& column : coords) {
    for (uint64_t id : column) PutVarint(&bytes, id);
  }
  PutVarint(&bytes, 1);
  PutString(&bytes, "m");
  for (double v : measure) PutDouble(&bytes, v);
  bytes.push_back(with_labels ? 1 : 0);
  if (with_labels) {
    for (size_t r = 0; r < measure.size(); ++r) PutString(&bytes, "lab");
  }
  return bytes;
}

TEST(WireFormatTest, DuplicateDictionaryMemberRejected) {
  // Coordinate 1 is within the wire count (2) but the repeated name interns
  // once: accepting it would leave a coordinate past the level's members.
  const std::string bytes =
      EncodeRawResult({{"aa", "aa"}}, {{1}}, {3.0}, /*with_labels=*/false);
  auto decoded = DeserializeAssessResult(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("duplicate dictionary member"),
            std::string::npos)
      << decoded.status().ToString();
  // The same layout with distinct names decodes and renders.
  auto distinct = DeserializeAssessResult(
      EncodeRawResult({{"aa", "ab"}}, {{1}}, {3.0}, /*with_labels=*/false));
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct->cube.CoordName(0, 0), "ab");
}

// Seeded mutation loop over dictionaries: names drawn from a tiny alphabet
// (so duplicates are common), coordinates sometimes past the dictionary,
// and in-place perturbations of the member names of a valid encoding. Every
// outcome is a typed error or a cube whose coordinates all render.
TEST(WireFormatTest, DictionaryMutationsFailTypedOrRender) {
  auto check = [](const std::string& bytes, uint64_t seed) {
    auto decoded = DeserializeAssessResult(bytes);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "seed " << seed << ": " << decoded.status().ToString();
      return;
    }
    const Cube& cube = decoded->cube;
    for (int l = 0; l < cube.level_count(); ++l) {
      for (int64_t r = 0; r < cube.NumRows(); ++r) {
        ASSERT_GE(cube.CoordAt(r, l), 0) << "seed " << seed;
        ASSERT_LT(cube.CoordAt(r, l), cube.level(l).cardinality())
            << "seed " << seed;
      }
    }
    EXPECT_FALSE(decoded->ToString(100).empty());
    std::ostringstream csv;
    decoded->WriteCsv(csv);
  };

  const std::string alphabet[] = {"", "a", "aa", "b", "a-much-longer-name"};
  constexpr uint64_t kNames = sizeof(alphabet) / sizeof(alphabet[0]);
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 0x51ED + 7);
    const int levels = 1 + static_cast<int>(rng.Uniform(2));
    const int rows = static_cast<int>(rng.Uniform(5));
    std::vector<std::vector<std::string>> dicts(levels);
    std::vector<std::vector<uint64_t>> coords(levels);
    for (int l = 0; l < levels; ++l) {
      const int size = 1 + static_cast<int>(rng.Uniform(4));
      for (int d = 0; d < size; ++d) {
        dicts[l].push_back(alphabet[rng.Uniform(kNames)]);
      }
      for (int r = 0; r < rows; ++r) coords[l].push_back(rng.Uniform(size + 1));
    }
    std::vector<double> measure(rows, 1.0);
    check(EncodeRawResult(dicts, coords, measure, rng.Uniform(2) == 1), seed);
  }

  // Perturb the member names of a valid encoding in place: overwrite one
  // name with another of the same length (a duplicate) or flip one of its
  // bytes (usually still distinct).
  const std::string valid = SerializeAssessResult(MakeHandcraftedResult());
  const std::vector<std::string> names = {"1997-01", "1997-02", "1997-03"};
  std::vector<size_t> at;
  for (const std::string& name : names) at.push_back(valid.find(name));
  for (size_t pos : at) ASSERT_NE(pos, std::string::npos);
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 0xC0FFEE + 3);
    std::string mutated = valid;
    const size_t target = at[rng.Uniform(at.size())];
    if (rng.Uniform(2) == 0) {
      const std::string& other = names[rng.Uniform(names.size())];
      mutated.replace(target, other.size(), other);
    } else {
      const size_t byte = target + rng.Uniform(names[0].size());
      mutated[byte] =
          static_cast<char>(mutated[byte] ^ (1 << rng.Uniform(8)));
    }
    check(mutated, seed);
  }
  // The deterministic duplicate: the second name written over the first.
  std::string duplicate = valid;
  duplicate.replace(at[0], names[1].size(), names[1]);
  EXPECT_FALSE(DeserializeAssessResult(duplicate).ok());
}

}  // namespace
}  // namespace assess
