// Scalar kernel tier: the portable fallback every host can run, the
// ground-truth half of every vectorized/scalar differential pair, and
// the forced baseline under MEL_SIMD=scalar. Compiled with the baseline
// ISA only — no vector intrinsics, no arch flags.

#include "util/simd/kernel_tables.h"
#include "util/simd/kernels_common.h"

namespace mel::util::simd::detail {

const KernelTable* ScalarKernels() {
  static const KernelTable table = {
      &ScalarMergeCount, &ScalarGallopCount,
      &ScalarProbeScan,  &ScalarFrontierAndNot,
  };
  return &table;
}

}  // namespace mel::util::simd::detail
