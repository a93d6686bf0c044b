#ifndef MEL_UTIL_SIMD_SIMD_H_
#define MEL_UTIL_SIMD_SIMD_H_

// Public face of the vectorized kernel layer (docs/PERFORMANCE.md,
// "Vectorized kernels"): runtime CPU-feature dispatch over scalar /
// AVX2 implementations of the three integer hot loops — sorted
// intersection (merge + gallop), the fuzzy-index probe scan, and the
// dense-BFS frontier filter. Only the
// AVX2 kernel TU is built with an arch flag; everything that executes before
// dispatch is baseline code, so the same binary runs on hosts without
// AVX2 (and under MEL_SIMD=scalar everywhere).
//
// This header is safe to include from baseline TUs only. The kernel TUs
// include simd_types.h, which carries no inline code.

#include <cstddef>
#include <cstdint>

#include "util/metrics.h"
#include "util/simd/simd_types.h"

namespace mel::util::simd {

/// Pure resolution logic: clamps the requested override (the value of
/// MEL_SIMD, may be null) to what `features` supports. Exposed separately
/// so tests can cover the override table without mutating the process
/// environment. Unknown override strings fall back to auto-detection.
Level ResolveLevel(const char* override_name, const CpuFeatures& features);

/// The tier every dispatched kernel call uses. Resolved once on first
/// use from CpuFeatures::Detect() and the MEL_SIMD environment variable
/// (scalar | avx2; requests above the host's capability clamp
/// down), then pinned for the process lifetime and published as the
/// util.simd.level gauge.
Level ActiveLevel();

/// True when KernelsFor(level) is callable on this host: the tier is at
/// most what the CPU supports AND the binary was built with that tier's
/// kernel translation unit enabled.
bool LevelSupported(Level level);

/// The table for the active tier.
const KernelTable& Kernels();

/// The table for a specific tier — for tests and the scalar-vs-
/// dispatched benches. Aborts unless LevelSupported(level).
const KernelTable& KernelsFor(Level level);

/// Per-kernel dispatch counters, cached once like every hot-path metric
/// bundle (docs/METRICS.md, util.simd.* rows). `dense_levels` counts
/// BFS levels that took the word-parallel bitset path (graph/bfs.cc
/// bumps it; the other three are bumped by the wrappers below).
struct SimdMetrics {
  metrics::Counter* merge_dispatch;
  metrics::Counter* gallop_dispatch;
  metrics::Counter* probe_dispatch;
  metrics::Counter* dense_levels;
};

const SimdMetrics& GetSimdMetrics();

// ---------------------------------------------------------------------------
// Dispatched entry points. These are what call sites use: one function-
// pointer hop into the active tier, plus (when metrics are enabled) a
// dispatch counter bump.
// ---------------------------------------------------------------------------

inline uint32_t MergeIntersectCountU32(const uint32_t* a, size_t na,
                                       const uint32_t* b, size_t nb) {
  if (metrics::Enabled()) GetSimdMetrics().merge_dispatch->Increment();
  return Kernels().merge_count(a, na, b, nb);
}

inline uint32_t GallopIntersectCountU32(const uint32_t* small, size_t ns,
                                        const uint32_t* large, size_t nl) {
  if (metrics::Enabled()) GetSimdMetrics().gallop_dispatch->Increment();
  return Kernels().gallop_count(small, ns, large, nl);
}

inline size_t ProbeScanU64(const uint64_t* keys, size_t mask, uint64_t key,
                           size_t start) {
  if (metrics::Enabled()) GetSimdMetrics().probe_dispatch->Increment();
  return Kernels().probe_scan(keys, mask, key, start);
}

inline void FrontierAndNot(uint64_t* next, const uint64_t* visited,
                           size_t nwords) {
  Kernels().frontier_and_not(next, visited, nwords);
}

}  // namespace mel::util::simd

#endif  // MEL_UTIL_SIMD_SIMD_H_
