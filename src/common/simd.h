#ifndef ASSESS_COMMON_SIMD_H_
#define ASSESS_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace assess {

/// \brief The instruction-set tiers the scan kernels are compiled for: the
/// scalar reference and AVX2.
///
/// Dispatch is compile-time per translation unit (the AVX2 kernels live in
/// a TU built with -mavx2) and runtime per process: the active tier is
/// AVX2 when it is (a) compiled in, (b) supported by the CPU, and (c) not
/// ruled out by the ASSESS_SIMD environment variable, else scalar. Both
/// tiers compute bit-identical results — the AVX2 tier vectorizes only the
/// integer keys and pass bits, and both add passing rows in row order
/// through the same code — so the choice is purely a performance knob and
/// CI can pin either tier on any machine. The tier also picks the CRC32C
/// path (common/crc32c.h): the SSE4.2 instruction at AVX2, tables below.
enum class SimdLevel : int {
  kScalar = 0,
  kAVX2 = 1,
};

/// \brief Lower-case tier name ("scalar", "avx2") for spans, metrics and
/// EXPLAIN ANALYZE.
const char* SimdLevelName(SimdLevel level);

/// \brief The best tier this CPU can execute (compiled-in tiers only; on
/// non-x86 builds this is always kScalar).
SimdLevel DetectCpuSimdLevel();

/// \brief The tier scans actually run at: DetectCpuSimdLevel() clamped by
/// the ASSESS_SIMD environment variable. Recognized values (case-
/// insensitive): "off"/"scalar"/"0"/"none" force the scalar kernels;
/// "avx2" caps the tier at AVX2 (requesting a tier the CPU lacks falls back
/// to the best supported one, never errors); "sse42"/"sse4.2" are ceilings
/// below AVX2 and so resolve to scalar; anything else / unset means
/// "auto". Resolved once per process and cached; ForceSimdLevelForTest
/// overrides.
SimdLevel ActiveSimdLevel();

/// \brief Test/bench hook: pins ActiveSimdLevel() to `level` (clamped to
/// what the CPU supports) until reset. Pass -1 to clear the override.
void ForceSimdLevelForTest(int level);

/// \brief Resolves an ASSESS_SIMD-style string against a detected tier
/// (exposed for tests of the parsing rules).
SimdLevel ResolveSimdLevel(const char* spec, SimdLevel detected);

/// \brief Alignment (one cache line) of the kernels' on-stack key and
/// bitmap staging buffers.
inline constexpr size_t kSimdAlign = 64;

}  // namespace assess

#endif  // ASSESS_COMMON_SIMD_H_
