// Seeded mutation fuzzing of the kStatsReply decoder
// (ServerStats::Deserialize). Starting from a valid payload it applies byte
// flips, truncation at every length, random insertions, and huge name-length
// and pair-count varints. Every input must decode OK or fail with
// kInvalidArgument, and no input may make the decoder allocate memory sized
// by the payload: the only allocation allowed is an error Status's fixed
// message.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>

#include "server/protocol.h"

namespace {

// Heap bytes requested by this thread while `t_counting` is set.
thread_local bool t_counting = false;
thread_local size_t t_allocated = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) t_allocated += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace assess {
namespace {

// An error Status carries one short literal message (plus the copy a
// propagated Status may make); anything larger was sized by the input.
constexpr size_t kErrorStatusBytes = 128;

/// A valid payload whose varints span one to ten bytes.
std::string ValidPayload() {
  ServerStats stats;
  uint64_t value = 1;
  for (const StatsField& field : ServerStatsFields()) {
    if (field.u64 != nullptr) {
      stats.*field.u64 = value;
    } else {
      stats.*field.f64 = static_cast<double>(value) / 3.0;
    }
    value = value * 37 + 11;
  }
  return stats.Serialize();
}

/// Decodes `input` and checks the decoder's contract; returns whether it
/// decoded.
bool DecodeChecked(const std::string& input) {
  t_allocated = 0;
  t_counting = true;
  auto decoded = ServerStats::Deserialize(input);
  const bool ok = decoded.ok();
  const StatusCode code = decoded.status().code();
  t_counting = false;
  EXPECT_TRUE(ok || code == StatusCode::kInvalidArgument)
      << decoded.status().ToString();
  EXPECT_LE(t_allocated, kErrorStatusBytes)
      << "decoder allocated " << t_allocated << " bytes for a "
      << input.size() << "-byte input";
  return ok;
}

/// A varint far beyond any sane length or count.
std::string HugeVarint(std::mt19937_64& rng) {
  static const char* const kHuge[] = {
      "\xff\xff\xff\xff\x0f",                      // 2^32 - 1
      "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01",  // 2^63
      "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",  // 2^64 - 1
      "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",  // never terminates
      "\x81\x02",                                  // 257
  };
  return kHuge[rng() % std::size(kHuge)];
}

TEST(StatsWireFuzz, ValidPayloadDecodes) {
  EXPECT_TRUE(DecodeChecked(ValidPayload()));
}

TEST(StatsWireFuzz, EveryTruncationIsRejected) {
  const std::string valid = ValidPayload();
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(DecodeChecked(valid.substr(0, len))) << "length " << len;
  }
}

TEST(StatsWireFuzz, SeededMutationsNeverCrashOrOverAllocate) {
  const std::string valid = ValidPayload();
  const auto fields = ServerStatsFields();
  std::mt19937_64 rng(0x5EED5747);
  for (int iter = 0; iter < 20'000; ++iter) {
    std::string input = valid;
    switch (rng() % 5) {
      case 0: {  // flip one to four bytes
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f) {
          input[rng() % input.size()] ^= static_cast<char>(1 + rng() % 255);
        }
        break;
      }
      case 1:  // a huge pair count
        input.replace(2, 1, HugeVarint(rng));
        break;
      case 2: {  // a huge name length for a random row
        const size_t name_at =
            input.find(fields[rng() % fields.size()].name);
        input.replace(name_at - 1, 1, HugeVarint(rng));
        break;
      }
      case 3: {  // random bytes inserted anywhere
        std::string junk(1 + rng() % 16, '\0');
        for (char& c : junk) c = static_cast<char>(rng());
        input.insert(rng() % (input.size() + 1), junk);
        break;
      }
      default:  // truncate, then flip a byte of what is left
        input.resize(rng() % input.size());
        if (!input.empty()) input[rng() % input.size()] ^= 0x40;
        break;
    }
    DecodeChecked(input);
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter;
    }
  }
}

}  // namespace
}  // namespace assess
