#include "storage/scan_kernels.h"

#include <limits>

#include "storage/scan_kernels_impl.h"

namespace assess {

// Entry points of the AVX2 TU (compiled with -mavx2; only added to the
// build on x86-64, see src/CMakeLists.txt).
#if defined(ASSESS_SIMD_X86)
namespace simd_detail {
void FusedScanAvx2(const FusedScanArgs& args, int64_t begin, int64_t end,
                   AggState* state);
}  // namespace simd_detail
#endif

namespace {

void FusedScanScalar(const FusedScanArgs& args, int64_t begin, int64_t end,
                     AggState* state) {
  kernel_detail::FusedScanImpl<kernel_detail::IsaScalar>(args, begin, end,
                                                         state);
}

}  // namespace

double InitialAccumulator(AggOp op) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kAvg:
    case AggOp::kCount:
      return 0.0;
    case AggOp::kMin:
      return std::numeric_limits<double>::infinity();
    case AggOp::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

FusedScanFn GetFusedScanKernel(SimdLevel level) {
#if defined(ASSESS_SIMD_X86)
  switch (level) {
    case SimdLevel::kAVX2:
      return &simd_detail::FusedScanAvx2;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return &FusedScanScalar;
}

}  // namespace assess
