// AVX2 kernel tier. This translation unit is the ONLY code in the
// binary compiled with -mavx2 (set per-file by src/CMakeLists.txt), and
// nothing in it runs unless the dispatcher verified AVX2 via cpuid — so
// the same binary keeps working on baseline hosts. Every function here
// is bit-identical to its scalar core for all inputs, including
// duplicate-heavy ones: order comparisons use the sign-bias trick for
// exact unsigned semantics, and any window where a duplicate is visible
// falls back to one exact scalar step.
//
// MEL_SIMD_BUILD_AVX2 is defined by CMake exactly when the flag is
// available; otherwise this file compiles to a null provider.

#include "util/simd/kernel_tables.h"

#if defined(MEL_SIMD_BUILD_AVX2)

#include <immintrin.h>

#include "util/simd/kernels_common.h"

namespace mel::util::simd::detail {
namespace {

constexpr uint32_t kSignBias = 0x80000000u;

// Cyclic 8-lane rotations for the all-pairs block compare. Plain
// constexpr ints: loading them at runtime is baseline-safe, whereas a
// namespace-scope __m256i would run AVX code in a static initializer —
// before dispatch ever checked cpuid.
alignas(32) constexpr int32_t kRotIdx[8][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {1, 2, 3, 4, 5, 6, 7, 0},
    {2, 3, 4, 5, 6, 7, 0, 1}, {3, 4, 5, 6, 7, 0, 1, 2},
    {4, 5, 6, 7, 0, 1, 2, 3}, {5, 6, 7, 0, 1, 2, 3, 4},
    {6, 7, 0, 1, 2, 3, 4, 5}, {7, 0, 1, 2, 3, 4, 5, 6},
};

inline int MoveMask32(__m256i v) {
  return _mm256_movemask_ps(_mm256_castsi256_ps(v));
}

// Lanes of sorted vector `v` strictly below the (pre-biased) pivot.
// Sorted input makes the less-than lanes a prefix, so the popcount IS
// the first not-less position.
inline int PrefixLessU32x8(__m256i v, __m256i biased_pivot) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(kSignBias));
  const __m256i lt =
      _mm256_cmpgt_epi32(biased_pivot, _mm256_xor_si256(v, bias));
  return __builtin_popcount(static_cast<unsigned>(MoveMask32(lt)));
}

// ---------------------------------------------------------------------------
// Sorted-u32 intersection, merge flavor: shuffle-based 8x8 block compare.
// Windows that contain a visible duplicate (any adjacent-equal pair in
// a[i..i+8] or b[j..j+8]) take one exact scalar step instead — the
// all-pairs count is only valid on duplicate-free windows, and the
// guard also covers the value-spans-two-windows case because it checks
// one element past the window.
// ---------------------------------------------------------------------------

uint32_t MergeCountAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                        size_t nb) {
  uint32_t count = 0;
  size_t i = 0, j = 0;
  // The dup-guard loads 8 lanes from a+i+1 / b+j+1, so keep one element
  // of headroom past each window.
  while (i + 9 <= na && j + 9 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i va1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 1));
    const __m256i vb1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j + 1));
    const int dup = MoveMask32(_mm256_cmpeq_epi32(va, va1)) |
                    MoveMask32(_mm256_cmpeq_epi32(vb, vb1));
    if (dup != 0) {
      ScalarMergeStep(a, b, &i, &j, &count);
      continue;
    }
    // All-pairs 8x8 equality via the 8 cyclic rotations of the b block,
    // OR-accumulated per a-lane (each a value matches at most one b
    // value inside a duplicate-free window).
    __m256i hits = _mm256_setzero_si256();
    for (int r = 0; r < 8; ++r) {
      const __m256i rot = _mm256_permutevar8x32_epi32(
          vb, _mm256_load_si256(reinterpret_cast<const __m256i*>(kRotIdx[r])));
      hits = _mm256_or_si256(hits, _mm256_cmpeq_epi32(va, rot));
    }
    count += __builtin_popcount(static_cast<unsigned>(MoveMask32(hits)));
    // Retire the window(s) whose max cannot match anything further: the
    // standard advance rule; on equal maxima both retire (their shared
    // value was just counted once).
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  while (i < na && j < nb) ScalarMergeStep(a, b, &i, &j, &count);
  return count;
}

// ---------------------------------------------------------------------------
// Sorted-u32 intersection, gallop flavor: vectorized bracket scan. The
// exponential probe checks 8 lanes per step; the movemask pinpoints the
// lower bound inside the probed block directly (0 < pc < 8), and only
// a block that is entirely >= x forces a binary search over the gap the
// doubling jumped across.
// ---------------------------------------------------------------------------

uint32_t GallopCountAvx2(const uint32_t* small, size_t ns,
                         const uint32_t* large, size_t nl) {
  uint32_t count = 0;
  size_t lo = 0;
  for (size_t k = 0; k < ns; ++k) {
    const uint32_t x = small[k];
    const __m256i pivot = _mm256_set1_epi32(static_cast<int>(x ^ kSignBias));
    size_t all_less_end = lo;  // large[0 .. all_less_end) < x is proven
    size_t hi = lo;
    size_t step = 8;
    size_t pos;
    for (;;) {
      if (hi + 8 > nl) {
        pos = LowerBoundU32(large, all_less_end, nl, x);
        break;
      }
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(large + hi));
      const int pc = PrefixLessU32x8(v, pivot);
      if (pc == 8) {
        all_less_end = hi + 8;
        hi += step;
        step <<= 1;
        continue;
      }
      if (pc > 0) {
        // large[hi] < x <= large[hi + pc]: the doubling gap before hi is
        // all < x too, so this is the exact lower bound.
        pos = hi + static_cast<size_t>(pc);
        break;
      }
      // large[hi] >= x: the bound sits in the jumped-over gap (or at hi).
      pos = LowerBoundU32(large, all_less_end, hi, x);
      break;
    }
    lo = pos;
    if (lo == nl) break;
    if (large[lo] == x) {
      ++count;
      ++lo;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Open-addressed probe scan: 4 slots per compare, first match-or-empty
// lane wins. The wrap boundary (and tables smaller than one vector)
// degrade to exact scalar steps.
// ---------------------------------------------------------------------------

size_t ProbeScanAvx2(const uint64_t* keys, size_t mask, uint64_t key,
                     size_t start) {
  const size_t cap = mask + 1;
  const __m256i target = _mm256_set1_epi64x(static_cast<long long>(key));
  const __m256i zero = _mm256_setzero_si256();
  size_t idx = start;
  for (;;) {
    if (idx + 4 <= cap) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + idx));
      const __m256i hit = _mm256_or_si256(_mm256_cmpeq_epi64(v, target),
                                          _mm256_cmpeq_epi64(v, zero));
      const int m = _mm256_movemask_pd(_mm256_castsi256_pd(hit));
      if (m != 0) {
        return idx + static_cast<size_t>(
                         __builtin_ctz(static_cast<unsigned>(m)));
      }
      idx += 4;
      if (idx == cap) idx = 0;
    } else {
      if (keys[idx] == key || keys[idx] == 0) return idx;
      idx = (idx + 1) & mask;
    }
  }
}

// ---------------------------------------------------------------------------
// Dense-BFS frontier filter: 4 bitset words per op.
// ---------------------------------------------------------------------------

void FrontierAndNotAvx2(uint64_t* next, const uint64_t* visited,
                        size_t nwords) {
  size_t w = 0;
  for (; w + 4 <= nwords; w += 4) {
    const __m256i n =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(next + w));
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(visited + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(next + w),
                        _mm256_andnot_si256(v, n));
  }
  for (; w < nwords; ++w) next[w] &= ~visited[w];
}

}  // namespace

const KernelTable* Avx2KernelsOrNull() {
  static const KernelTable table = {
      &MergeCountAvx2, &GallopCountAvx2,
      &ProbeScanAvx2,  &FrontierAndNotAvx2,
  };
  return &table;
}

}  // namespace mel::util::simd::detail

#else  // !MEL_SIMD_BUILD_AVX2

namespace mel::util::simd::detail {

const KernelTable* Avx2KernelsOrNull() { return nullptr; }

}  // namespace mel::util::simd::detail

#endif  // MEL_SIMD_BUILD_AVX2
