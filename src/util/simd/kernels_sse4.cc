// SSE4.2 kernel tier: 4-lane versions of the AVX2 kernels (see
// kernels_avx2.cc for the algorithm commentary — the structure is
// identical, halved widths). Compiled per-file with -msse4.2 and only
// reachable through the dispatch table after cpuid verified SSE4.2.
//
// MEL_SIMD_BUILD_SSE4 is defined by CMake exactly when the flag is
// available; otherwise this file compiles to a null provider.

#include "util/simd/kernel_tables.h"

#if defined(MEL_SIMD_BUILD_SSE4)

#include <nmmintrin.h>

#include "util/simd/kernels_common.h"

namespace mel::util::simd::detail {
namespace {

constexpr uint32_t kSignBias = 0x80000000u;

inline int MoveMask32(__m128i v) {
  return _mm_movemask_ps(_mm_castsi128_ps(v));
}

inline int PrefixLessU32x4(__m128i v, __m128i biased_pivot) {
  const __m128i bias = _mm_set1_epi32(static_cast<int>(kSignBias));
  const __m128i lt = _mm_cmpgt_epi32(biased_pivot, _mm_xor_si128(v, bias));
  return __builtin_popcount(static_cast<unsigned>(MoveMask32(lt)));
}

// 4x4 all-pairs block intersection with the same duplicate guard and
// advance-by-max rule as the 8x8 AVX2 version. The four rotations of
// the b block come from _mm_shuffle_epi32 immediates.
uint32_t MergeCountSse4(const uint32_t* a, size_t na, const uint32_t* b,
                        size_t nb) {
  uint32_t count = 0;
  size_t i = 0, j = 0;
  while (i + 5 <= na && j + 5 <= nb) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    const __m128i va1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i + 1));
    const __m128i vb1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j + 1));
    const int dup = MoveMask32(_mm_cmpeq_epi32(va, va1)) |
                    MoveMask32(_mm_cmpeq_epi32(vb, vb1));
    if (dup != 0) {
      ScalarMergeStep(a, b, &i, &j, &count);
      continue;
    }
    __m128i hits = _mm_cmpeq_epi32(va, vb);
    hits = _mm_or_si128(
        hits, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
    hits = _mm_or_si128(
        hits, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
    hits = _mm_or_si128(
        hits, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
    count += __builtin_popcount(static_cast<unsigned>(MoveMask32(hits)));
    const uint32_t amax = a[i + 3];
    const uint32_t bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  while (i < na && j < nb) ScalarMergeStep(a, b, &i, &j, &count);
  return count;
}

uint32_t GallopCountSse4(const uint32_t* small, size_t ns,
                         const uint32_t* large, size_t nl) {
  uint32_t count = 0;
  size_t lo = 0;
  for (size_t k = 0; k < ns; ++k) {
    const uint32_t x = small[k];
    const __m128i pivot = _mm_set1_epi32(static_cast<int>(x ^ kSignBias));
    size_t all_less_end = lo;
    size_t hi = lo;
    size_t step = 4;
    size_t pos;
    for (;;) {
      if (hi + 4 > nl) {
        pos = LowerBoundU32(large, all_less_end, nl, x);
        break;
      }
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(large + hi));
      const int pc = PrefixLessU32x4(v, pivot);
      if (pc == 4) {
        all_less_end = hi + 4;
        hi += step;
        step <<= 1;
        continue;
      }
      if (pc > 0) {
        pos = hi + static_cast<size_t>(pc);
        break;
      }
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

size_t ProbeScanSse4(const uint64_t* keys, size_t mask, uint64_t key,
                     size_t start) {
  const size_t cap = mask + 1;
  const __m128i target = _mm_set1_epi64x(static_cast<long long>(key));
  const __m128i zero = _mm_setzero_si128();
  size_t idx = start;
  for (;;) {
    if (idx + 2 <= cap) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + idx));
      const __m128i hit = _mm_or_si128(_mm_cmpeq_epi64(v, target),
                                       _mm_cmpeq_epi64(v, zero));
      const int m = _mm_movemask_pd(_mm_castsi128_pd(hit));
      if (m != 0) {
        return idx + static_cast<size_t>(
                         __builtin_ctz(static_cast<unsigned>(m)));
      }
      idx += 2;
      if (idx == cap) idx = 0;
    } else {
      if (keys[idx] == key || keys[idx] == 0) return idx;
      idx = (idx + 1) & mask;
    }
  }
}

void FrontierAndNotSse4(uint64_t* next, const uint64_t* visited,
                        size_t nwords) {
  size_t w = 0;
  for (; w + 2 <= nwords; w += 2) {
    const __m128i n =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(next + w));
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(visited + w));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(next + w),
                     _mm_andnot_si128(v, n));
  }
  for (; w < nwords; ++w) next[w] &= ~visited[w];
}

}  // namespace

const KernelTable* Sse4KernelsOrNull() {
  static const KernelTable table = {
      &MergeCountSse4, &GallopCountSse4,
      &ProbeScanSse4,  &FrontierAndNotSse4,
  };
  return &table;
}

}  // namespace mel::util::simd::detail

#else  // !MEL_SIMD_BUILD_SSE4

namespace mel::util::simd::detail {

const KernelTable* Sse4KernelsOrNull() { return nullptr; }

}  // namespace mel::util::simd::detail

#endif  // MEL_SIMD_BUILD_SSE4
