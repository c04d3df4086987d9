// AVX2 tier of the fused scan kernels. This TU is compiled with -mavx2
// (see src/CMakeLists.txt); the entry points are out-of-line so no AVX2
// code can leak into TUs built for the baseline ISA.

#include "storage/scan_kernels_impl.h"

namespace assess {
namespace simd_detail {

void FusedScanAvx2(const FusedScanArgs& args, int64_t begin, int64_t end,
                   AggState* state) {
  kernel_detail::FusedScanImpl<kernel_detail::IsaAvx2>(args, begin, end,
                                                       state);
}

}  // namespace simd_detail
}  // namespace assess
