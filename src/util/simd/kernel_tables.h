#ifndef MEL_UTIL_SIMD_KERNEL_TABLES_H_
#define MEL_UTIL_SIMD_KERNEL_TABLES_H_

// Internal seam between the dispatcher (simd.cc) and the per-tier kernel
// translation units. Each TU exports exactly one provider; the AVX2
// provider returns nullptr when the binary was configured without
// that tier (non-x86 target or the compiler lacking the flag), which is
// how LevelSupported() learns what this build actually contains.
// Includes only simd_types.h — no inline code may leak into the
// arch-flagged TUs (see simd_types.h).

#include "util/simd/simd_types.h"

namespace mel::util::simd::detail {

const KernelTable* ScalarKernels();  // never nullptr
const KernelTable* Avx2KernelsOrNull();

}  // namespace mel::util::simd::detail

#endif  // MEL_UTIL_SIMD_KERNEL_TABLES_H_
