#ifndef ASSESS_COMMON_CRC32C_H_
#define ASSESS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace assess {

/// \brief CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected), the
/// checksum behind the assessd frame integrity trailer and the WAL and
/// checkpoint records. On x86-64 at the AVX2 tier of ActiveSimdLevel() it
/// runs on the SSE4.2 crc32 instruction; below it (including under
/// ASSESS_SIMD=off) on software slicing-by-8 tables. Both paths return the
/// same value for every input.
///
/// `Crc32c("123456789")` == 0xE3069283 (the standard check value).
uint32_t Crc32c(const void* data, size_t len);

inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(data.data(), data.size());
}

/// \brief Incremental form: extends `crc` (a previous Crc32c result, or 0
/// for an empty prefix) with `len` more bytes.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

}  // namespace assess

#endif  // ASSESS_COMMON_CRC32C_H_
