#ifndef MEL_UTIL_SIMD_KERNELS_COMMON_H_
#define MEL_UTIL_SIMD_KERNELS_COMMON_H_

// Scalar cores shared by every kernel translation unit. The scalar tier
// registers these directly; the AVX2 tier calls them for short
// inputs, vector tails, and the duplicate-heavy fallback steps — so the
// exact semantics (pairwise duplicate counting, lower-bound positions)
// are written exactly once.
//
// Everything here is `static inline` ON PURPOSE: the AVX2 TU is
// compiled with an arch flag, and an ordinary `inline` function would be
// a comdat the linker may pick from the vectorized TU for the whole
// binary — executing AVX instructions on the pre-dispatch path of a
// baseline host. Internal linkage gives every TU its own baseline-or-
// better copy, reachable only through that TU's dispatch table. For the
// same reason this header must not touch std:: templates that other TUs
// also instantiate (no <vector>, no <algorithm>).

#include <cstddef>
#include <cstdint>

namespace mel::util::simd::detail {

/// Local lower_bound over a sorted u32 range (std::lower_bound would be
/// a shared template instantiation — see the header comment).
static inline size_t LowerBoundU32(const uint32_t* p, size_t lo, size_t hi,
                                   uint32_t x) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (p[mid] < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Linear merge count; duplicates count pairwise like
/// std::set_intersection (min of the two multiplicities per value).
static inline uint32_t ScalarMergeCount(const uint32_t* a, size_t na,
                                        const uint32_t* b, size_t nb) {
  uint32_t count = 0;
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// One merge step from (i, j): counts at most one match and advances at
/// least one cursor. The duplicate-fallback unit of the vector merges.
static inline void ScalarMergeStep(const uint32_t* a, const uint32_t* b,
                                   size_t* i, size_t* j, uint32_t* count) {
  if (a[*i] < b[*j]) {
    ++*i;
  } else if (a[*i] > b[*j]) {
    ++*j;
  } else {
    ++*count;
    ++*i;
    ++*j;
  }
}

/// Galloping count: for each element of the small list, exponential-
/// search a bracket in the large list from the previous position, then
/// binary-search inside it. Identical results to ScalarMergeCount —
/// everything reduces to lower-bound positions.
static inline uint32_t ScalarGallopCount(const uint32_t* small, size_t ns,
                                         const uint32_t* large, size_t nl) {
  uint32_t count = 0;
  size_t lo = 0;
  for (size_t k = 0; k < ns; ++k) {
    const uint32_t x = small[k];
    size_t step = 1;
    size_t hi = lo;
    while (hi < nl && large[hi] < x) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > nl) hi = nl;
    lo = LowerBoundU32(large, lo, hi, x);
    if (lo == nl) break;
    if (large[lo] == x) {
      ++count;
      ++lo;
    }
  }
  return count;
}

/// Linear probe scan: first slot from `start` (wrapping at mask + 1)
/// whose key matches or is empty (0).
static inline size_t ScalarProbeScan(const uint64_t* keys, size_t mask,
                                     uint64_t key, size_t start) {
  size_t idx = start;
  while (keys[idx] != key && keys[idx] != 0) {
    idx = (idx + 1) & mask;
  }
  return idx;
}

static inline void ScalarFrontierAndNot(uint64_t* next,
                                        const uint64_t* visited,
                                        size_t nwords) {
  for (size_t w = 0; w < nwords; ++w) next[w] &= ~visited[w];
}

}  // namespace mel::util::simd::detail

#endif  // MEL_UTIL_SIMD_KERNELS_COMMON_H_
