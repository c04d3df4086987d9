#ifndef ASSESS_STORAGE_SCAN_KERNELS_IMPL_H_
#define ASSESS_STORAGE_SCAN_KERNELS_IMPL_H_

// Template bodies of the fused scan→aggregate kernels, included by one
// translation unit per instruction-set tier (scan_kernels.cc for scalar,
// scan_kernels_avx2.cc built with -mavx2 — the __AVX2__ guards below see
// that flag).
//
// The tier-specific code is confined to Isa::ComputeKeys (group keys + pass
// bitmap for a run of rows). Everything stateful — dense group assignment,
// first-seen coordinate decode, measure accumulation — is the shared
// scalar code below, executed in row order in every tier, which is what
// makes the tiers bit-identical.
//
// Everything here lives in an unnamed namespace, so each tier's TU gets its
// own internal-linkage copy. With external linkage the scalar and AVX2 TUs
// would each emit weak definitions of the same helpers (whenever a call is
// not inlined), and the linker could keep the -mavx2 copy for both tiers.

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "storage/scan_kernels.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace assess {
namespace kernel_detail {
namespace {

/// Rows per kernel block: key/bitmap buffers live in L1/L2 (16 KiB of keys)
/// and the block length is a multiple of 64 (whole bitmap words).
inline constexpr int64_t kKernelBlock = 4096;

/// Key of row `r`, the scalar definition every tier agrees with: 1 plus
/// the sum of the row's lane entries. Returns false when a lane rejects.
inline bool RowKey(const std::vector<KernelColumn>& cols, int64_t r,
                   uint32_t* key) {
  uint32_t k = 1;
  uint32_t rej = 0;
  for (const KernelColumn& c : cols) {
    const uint32_t lane = c.lane[c.codes32[r]];
    rej |= lane;
    k += lane;
  }
  *key = k;
  return (rej & kLaneReject) == 0;
}

/// Keys + pass bits over rows [row0 + i0, row0 + n): the AVX2 tier's tail
/// path. Bits are OR-ed into `bitmap`, which must be zeroed beforehand.
inline void ComputeKeysScalar(const std::vector<KernelColumn>& cols,
                              int64_t row0, int64_t i0, int64_t n,
                              uint32_t* keys, uint64_t* bitmap) {
  for (int64_t i = i0; i < n; ++i) {
    if (RowKey(cols, row0 + i, &keys[i])) {
      bitmap[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

/// Folds one passing row into `state`: first-seen group assignment through
/// the dense key→group array, coordinate decode from the key, then the
/// measure accumulate. The single definition every dense path shares — the
/// block-staged AVX2 tier and the single-pass scalar tier both funnel
/// passing rows through here in row order, which is what makes them
/// bit-identical.
inline void AccumulateRow(const FusedScanArgs& args, uint32_t key, int64_t r,
                          AggState* state) {
  const int num_grouped = static_cast<int>(args.groups.size());
  const int num_measures = static_cast<int>(args.measures.size());
  int32_t group = state->dense[key];
  if (group < 0) {
    group = state->num_groups++;
    state->dense[key] = group;
    const uint32_t k0 = key - 1;
    for (int gi = 0; gi < num_grouped; ++gi) {
      const KernelGroup& kg = args.groups[gi];
      state->out_coords[gi].push_back(
          static_cast<MemberId>((k0 / kg.radix) % kg.card1) - 1);
    }
    for (int m = 0; m < num_measures; ++m) {
      state->acc[m].push_back(InitialAccumulator(args.measures[m].op));
      state->cnt[m].push_back(0);
    }
  }
  for (int m = 0; m < num_measures; ++m) {
    const KernelMeasure& km = args.measures[m];
    const double v = km.source != nullptr ? km.source[r] : 0.0;
    switch (km.op) {
      case AggOp::kSum:
        state->acc[m][group] += v;
        break;
      case AggOp::kAvg:
        state->acc[m][group] += v;
        state->cnt[m][group] += 1;
        break;
      case AggOp::kMin:
        state->acc[m][group] = std::min(state->acc[m][group], v);
        break;
      case AggOp::kMax:
        state->acc[m][group] = std::max(state->acc[m][group], v);
        break;
      case AggOp::kCount:
        state->acc[m][group] += 1;
        break;
    }
  }
}

/// Whether the single-measure kSum fast path of the accumulate loops
/// applies. That shape — one summed measure, groups resolved through the
/// dense array — is the archetypal OLAP scan, and special-casing it keeps
/// the accumulator base pointer and dense array in registers instead of
/// re-deriving them through AggState for every passing row.
inline bool SingleSumShape(const FusedScanArgs& args) {
  return args.measures.size() == 1 && args.measures[0].op == AggOp::kSum &&
         args.measures[0].source != nullptr;
}

/// The AVX2 tier's accumulation phase: walks the pass bitmap in row
/// order, handing each passing row to AccumulateRow.
inline void AccumulateBlock(const FusedScanArgs& args, int64_t row0,
                            int64_t n, const uint32_t* keys,
                            const uint64_t* bitmap, AggState* state) {
  const int64_t words = (n + 63) >> 6;
  if (SingleSumShape(args)) {
    // Same adds in the same row order as the generic loop below — first-
    // seen keys detour through AccumulateRow (which may reallocate acc, so
    // the raw pointer is re-fetched), everything else stays in registers.
    const double* src = args.measures[0].source;
    const int32_t* dense = state->dense.data();
    double* acc = state->acc[0].data();
    for (int64_t w = 0; w < words; ++w) {
      uint64_t bits = bitmap[w];
      state->rows_passed += std::popcount(bits);
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const int64_t i = (w << 6) + b;
        const int32_t group = dense[keys[i]];
        if (group >= 0) {
          acc[group] += src[row0 + i];
        } else {
          AccumulateRow(args, keys[i], row0 + i, state);
          acc = state->acc[0].data();
        }
      }
    }
    return;
  }
  for (int64_t w = 0; w < words; ++w) {
    uint64_t bits = bitmap[w];
    state->rows_passed += std::popcount(bits);
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const int64_t i = (w << 6) + b;
      AccumulateRow(args, keys[i], row0 + i, state);
    }
  }
}

/// The scalar tier's dense path: one pass, no key/bitmap staging buffers —
/// without vector key computation the staging costs more than it saves.
/// Rows flow through the same key arithmetic (RowKey) and the
/// same AccumulateRow in the same order, so output bits match the staged
/// AVX2 tier exactly.
inline void DenseScanScalar(const FusedScanArgs& args, int64_t begin,
                            int64_t end, AggState* state) {
  if (SingleSumShape(args)) {
    const double* src = args.measures[0].source;
    const int32_t* dense = state->dense.data();
    double* acc = state->acc[0].data();
    int64_t passed = 0;
    for (int64_t r = begin; r < end; ++r) {
      uint32_t key = 0;
      if (!RowKey(args.columns, r, &key)) continue;
      ++passed;
      const int32_t group = dense[key];
      if (group >= 0) {
        acc[group] += src[r];
      } else {
        AccumulateRow(args, key, r, state);
        acc = state->acc[0].data();
      }
    }
    state->rows_passed += passed;
    return;
  }
  for (int64_t r = begin; r < end; ++r) {
    uint32_t key = 0;
    if (!RowKey(args.columns, r, &key)) continue;
    ++state->rows_passed;
    AccumulateRow(args, key, r, state);
  }
}

// -- scalar tier ------------------------------------------------------------

struct IsaScalar {
  static constexpr SimdLevel kLevel = SimdLevel::kScalar;
};

// -- AVX2 tier --------------------------------------------------------------

#if defined(__AVX2__)

struct IsaAvx2 {
  static constexpr SimdLevel kLevel = SimdLevel::kAVX2;

  static void ComputeKeys(const std::vector<KernelColumn>& cols, int64_t row0,
                          int64_t n, uint32_t* keys, uint64_t* bitmap) {
    std::memset(bitmap, 0, static_cast<size_t>((n + 63) >> 6) * 8);
    uint8_t* bitmap_bytes = reinterpret_cast<uint8_t*>(bitmap);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256i key = _mm256_set1_epi32(1);
      __m256i rej = _mm256_setzero_si256();
      for (const KernelColumn& c : cols) {
        const __m256i codes = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(c.codes32 + row0 + i));
        const __m256i lanes = _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(c.lane), codes, 4);
        rej = _mm256_or_si256(rej, lanes);
        key = _mm256_add_epi32(key, lanes);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i), key);
      // Sign bits of `rej` are the reject flags; i is 8-aligned, so the
      // eight pass bits land on one whole bitmap byte.
      bitmap_bytes[i >> 3] = static_cast<uint8_t>(
          ~_mm256_movemask_ps(_mm256_castsi256_ps(rej)));
    }
    ComputeKeysScalar(cols, row0, i, n, keys, bitmap);
  }
};

#endif  // __AVX2__

/// The tier-generic fused kernel body.
template <class Isa>
void FusedScanImpl(const FusedScanArgs& args, int64_t begin, int64_t end,
                   AggState* state) {
  state->rows_visited += end - begin;
  state->dense.assign(args.key_space, -1);
  if constexpr (Isa::kLevel == SimdLevel::kScalar) {
    DenseScanScalar(args, begin, end, state);
  } else {
    alignas(kSimdAlign) uint32_t keys[kKernelBlock];
    alignas(kSimdAlign) uint64_t bitmap[kKernelBlock / 64];
    for (int64_t block = begin; block < end; block += kKernelBlock) {
      const int64_t n = std::min(kKernelBlock, end - block);
      Isa::ComputeKeys(args.columns, block, n, keys, bitmap);
      AccumulateBlock(args, block, n, keys, bitmap, state);
    }
  }
  // Only the group lists survive to the merge; the dense array is per-
  // morsel scratch and would otherwise pin key_space × 4 bytes per partial.
  state->dense = std::vector<int32_t>();
}

}  // namespace
}  // namespace kernel_detail
}  // namespace assess

#endif  // ASSESS_STORAGE_SCAN_KERNELS_IMPL_H_