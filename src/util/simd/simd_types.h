#ifndef MEL_UTIL_SIMD_SIMD_TYPES_H_
#define MEL_UTIL_SIMD_SIMD_TYPES_H_

// Types shared between the dispatcher (simd.h / simd.cc) and the
// per-tier kernel translation units. This header deliberately contains
// NO inline function definitions: the AVX2 TU is compiled with an
// arch flag, and any comdat (inline/template) function it emitted
// could be chosen by the linker for the whole binary — an illegal-
// instruction trap waiting for a baseline host. Keeping this header to
// plain declarations makes that impossible by construction.

#include <cstddef>
#include <cstdint>

namespace mel::util::simd {

/// Instruction-set tiers the kernel layer can dispatch to. Values are
/// ordered: a higher tier implies every capability of the lower ones,
/// and `util.simd.level` exports the active value verbatim (the gap at
/// 1 keeps the exported avx2 value stable).
enum class Level : int {
  kScalar = 0,
  kAvx2 = 2,
};

/// Human-readable tier name ("scalar" / "avx2").
const char* LevelName(Level level);

/// What the host CPU can execute, probed once per process (cpuid via
/// __builtin_cpu_supports on x86; everything false elsewhere).
struct CpuFeatures {
  bool avx2 = false;

  static const CpuFeatures& Detect();
};

/// \brief One resolved set of kernel entry points.
///
/// Every kernel is integer-exact: for identical inputs, every tier
/// returns bit-identical results (the differential oracle replays
/// vectorized/scalar pairs — see docs/TESTING.md). All pointers are
/// non-null in any table returned by Kernels() / KernelsFor().
struct KernelTable {
  /// Sorted-u32 intersection count, linear-merge flavor (near-equal
  /// sizes). Duplicates count pairwise like std::set_intersection.
  uint32_t (*merge_count)(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb);

  /// Sorted-u32 intersection count, galloping flavor (|small| <<
  /// |large|): per small element, an exponential bracket scan over the
  /// large list. Same duplicate semantics as merge_count.
  uint32_t (*gallop_count)(const uint32_t* small, size_t ns,
                           const uint32_t* large, size_t nl);

  /// Open-addressed probe scan: starting at `start`, returns the index
  /// of the first slot (in linear-probe order, wrapping at capacity =
  /// mask + 1, a power of two) whose key equals `key` or is 0 (empty).
  /// The table must contain at least one empty slot or a match.
  size_t (*probe_scan)(const uint64_t* keys, size_t mask, uint64_t key,
                       size_t start);

  /// Word-parallel frontier filter: next[w] &= ~visited[w] for w in
  /// [0, nwords). The dense-BFS level step in graph/bfs.cc.
  void (*frontier_and_not)(uint64_t* next, const uint64_t* visited,
                           size_t nwords);
};

}  // namespace mel::util::simd

#endif  // MEL_UTIL_SIMD_SIMD_TYPES_H_
