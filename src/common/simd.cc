#include "common/simd.h"

#include <atomic>
#include <cctype>
#include <string>

namespace assess {

namespace {

// Set by CMake only when the AVX2 kernel TU is part of the build
// (x86-64 targets); other architectures run the scalar fallback.
#if defined(ASSESS_SIMD_X86)
constexpr bool kSimdCompiledIn = true;
#else
constexpr bool kSimdCompiledIn = false;
#endif

std::string ToLower(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(*s))));
  }
  return out;
}

// -1 = no override; otherwise the forced SimdLevel value.
std::atomic<int> g_forced_level{-1};

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAVX2:
      return "avx2";
  }
  return "scalar";
}

SimdLevel DetectCpuSimdLevel() {
  if constexpr (!kSimdCompiledIn) return SimdLevel::kScalar;
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAVX2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel ResolveSimdLevel(const char* spec, SimdLevel detected) {
  if (spec == nullptr) return detected;
  std::string s = ToLower(spec);
  // SSE4.2 is a ceiling below the AVX2 tier: only scalar lies under it.
  if (s == "off" || s == "scalar" || s == "0" || s == "none" ||
      s == "sse42" || s == "sse4.2") {
    return SimdLevel::kScalar;
  }
  if (s == "avx2") {
    return detected < SimdLevel::kAVX2 ? detected : SimdLevel::kAVX2;
  }
  // "auto", "", unrecognized: best available. Requesting a tier the CPU
  // cannot run falls back rather than failing — the knob is a ceiling.
  return detected;
}

SimdLevel ActiveSimdLevel() {
  int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    SimdLevel detected = DetectCpuSimdLevel();
    SimdLevel wanted = static_cast<SimdLevel>(forced);
    return wanted < detected ? wanted : detected;
  }
  static const SimdLevel resolved =
      ResolveSimdLevel(std::getenv("ASSESS_SIMD"), DetectCpuSimdLevel());
  return resolved;
}

void ForceSimdLevelForTest(int level) {
  g_forced_level.store(level, std::memory_order_relaxed);
}

}  // namespace assess
