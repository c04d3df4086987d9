#ifndef ASSESS_STORAGE_SCAN_KERNELS_H_
#define ASSESS_STORAGE_SCAN_KERNELS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_map64.h"
#include "common/simd.h"
#include "olap/cube_schema.h"
#include "olap/hierarchy.h"

namespace assess {

/// \brief The fused scan→aggregate kernels: predicate evaluation, group-key
/// construction and measure accumulation in one pass over a morsel.
///
/// The engine lowers a scan into *lane tables*: for every hierarchy the
/// scan touches, a uint32 array over that hierarchy's code domain holding
///
///   lane[code] = reject | radix * (group_member + 1)
///
/// where `reject` is kLaneReject when the conjunction of predicates
/// rejects `code` (else 0) and the group term is 0 when the hierarchy is
/// only predicated. A rejected code keeps its group term under the reject
/// bit, so a lane is built without a branch. Per fact row the kernel
/// computes key = 1 + Σ_h lane_h[code_h], with the lanes OR-accumulated
/// alongside the sum: the reject bit of that OR alone decides whether the
/// row passes, and a rejected row's key is never read. A passing row's key
/// is an exact integer (the engine only picks this kernel when the
/// mixed-radix key space fits kDenseKeyLimit, so a sum of clean lanes
/// never reaches the reject bit) and group lookup is a direct index into a
/// dense key→group array — no hashing. A lane depends only on its pass
/// flags, group column and radix, so consumers of one scan with equal
/// inputs share one table.
///
/// Determinism contract: both tiers (the scalar reference and AVX2)
/// produce bit-identical output. The AVX2 tier only vectorizes the integer
/// keys and pass bitmaps; every passing row is then added into its group by
/// the one shared accumulate code, in row order, in every tier — a scan
/// with no group-by included (it is the dense path with key_space 2).

/// \brief Reject marker in a lane table (bit 31; clean lane sums stay far
/// below it because the key space is capped at kDenseKeyLimit).
inline constexpr uint32_t kLaneReject = 0x80000000u;

/// \brief Largest dense key space (max key + 1) the fused kernel handles;
/// larger group-by spaces fall back to the generic hash kernel. 2^18 keys
/// = a 1 MiB key→group array per in-flight morsel, freed at morsel end.
inline constexpr uint32_t kDenseKeyLimit = 1u << 18;

/// \brief One hierarchy's input to the fused kernel: its int32 codes (a
/// fact table's FK column, or a view's or cached result's coordinate
/// column) and the lane table spanning their code domain.
struct KernelColumn {
  const int32_t* codes32 = nullptr;
  const uint32_t* lane = nullptr;
};

/// \brief Decode schema for one grouped hierarchy: member ids are recovered
/// from a key as (key − 1) / radix % card1 − 1 on first-seen insertion.
struct KernelGroup {
  uint32_t radix = 0;
  uint32_t card1 = 0;  ///< level cardinality + 1
};

/// \brief Identity of `op`'s accumulator: 0 for sum/avg/count, +inf for
/// min, -inf for max. Shared by the fused kernels, the generic hash kernel
/// and the morsel merge.
double InitialAccumulator(AggOp op);

struct KernelMeasure {
  const double* source = nullptr;  ///< null: rows contribute 0.0 (count)
  AggOp op = AggOp::kSum;
};

/// \brief Per-morsel aggregation state shared by the dense fused kernels
/// and the generic hash kernel; partials merge in morsel index order.
struct AggState {
  /// Key → group index of the generic kernel and of a merge target, built
  /// on first use: the dense fused kernels never touch it.
  std::optional<FlatMap64> map;
  int32_t num_groups = 0;
  std::vector<std::vector<MemberId>> out_coords;  ///< [grouped hier][group]
  std::vector<std::vector<double>> acc;           ///< [measure][group]
  std::vector<std::vector<int64_t>> cnt;          ///< [measure][group], avg
  /// Dense key→group index, -1 = empty. Allocated by the fused kernel on
  /// entry, released when its morsel completes (only the group lists above
  /// survive to the merge).
  std::vector<int32_t> dense;
  int64_t rows_visited = 0;
  int64_t rows_passed = 0;

  FlatMap64& Map() {
    if (!map) map.emplace(1024);
    return *map;
  }
};

/// \brief Everything a fused-kernel invocation needs besides the row range.
struct FusedScanArgs {
  std::vector<KernelColumn> columns;  ///< all touched hierarchies
  std::vector<KernelGroup> groups;    ///< grouped subset, radix-ascending
  std::vector<KernelMeasure> measures;
  uint32_t key_space = 0;  ///< dense array size (> max possible key)
};

/// \brief Runs the fused scan→aggregate over rows [begin, end) of one
/// morsel, accumulating into `state`.
using FusedScanFn = void (*)(const FusedScanArgs& args, int64_t begin,
                             int64_t end, AggState* state);

/// \brief The fused kernel for `level` (pointers for compiled-in tiers;
/// asking for a tier that is not compiled in returns the scalar kernel).
FusedScanFn GetFusedScanKernel(SimdLevel level);

}  // namespace assess

#endif  // ASSESS_STORAGE_SCAN_KERNELS_H_
