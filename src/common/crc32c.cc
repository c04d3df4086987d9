#include "common/crc32c.h"

#include <array>
#include <cstring>

#include "common/simd.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace assess {
namespace {

/// Eight 256-entry tables for slicing-by-8, generated once at first use
/// from the reflected Castagnoli polynomial.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Tables() {
    constexpr uint32_t kPoly = 0x82F63B78;  // 0x1EDC6F41 reflected
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

uint32_t ExtendTables(uint32_t crc, const uint8_t* p, size_t len) {
  const Tables& tables = GetTables();
  while (len >= 8) {
    // Byte-wise loads keep this alignment- and endianness-agnostic.
    uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                         static_cast<uint32_t>(p[1]) << 8 |
                         static_cast<uint32_t>(p[2]) << 16 |
                         static_cast<uint32_t>(p[3]) << 24);
    crc = tables.t[7][lo & 0xFF] ^ tables.t[6][(lo >> 8) & 0xFF] ^
          tables.t[5][(lo >> 16) & 0xFF] ^ tables.t[4][lo >> 24] ^
          tables.t[3][p[4]] ^ tables.t[2][p[5]] ^ tables.t[1][p[6]] ^
          tables.t[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = tables.t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this polynomial; compiled
// for SSE4.2 here alone, so the rest of the build keeps its baseline ISA.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                           const uint8_t* p,
                                                           size_t len) {
  uint64_t crc64 = crc;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    len -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (len-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}
#endif

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
#if defined(__x86_64__)
  // Every AVX2 CPU has SSE4.2, so the scan-kernel tier (and its ASSESS_SIMD
  // ceiling) also selects the checksum path.
  if (ActiveSimdLevel() >= SimdLevel::kAVX2) {
    return ~ExtendHardware(~crc, p, len);
  }
#endif
  return ~ExtendTables(~crc, p, len);
}

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace assess
