#ifndef MEL_UTIL_SORTED_INTERSECT_H_
#define MEL_UTIL_SORTED_INTERSECT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "util/simd/simd.h"

namespace mel::util {

/// Size ratio beyond which galloping beats the linear merge. Shared by
/// the WLM inlink intersection and the 2-hop count-only query path so
/// both hot paths dispatch on the same empirical constant.
inline constexpr size_t kGallopRatio = 16;

/// Intersection count of two sorted u32 spans (NodeId, EntityId);
/// duplicates count pairwise like std::set_intersection. Swaps so the
/// smaller span leads, gallops when the size ratio crosses kGallopRatio,
/// merges otherwise — both through the runtime-dispatched vectorized
/// kernels (util/simd/simd.h).
inline uint32_t SortedIntersectCount(std::span<const uint32_t> a,
                                     std::span<const uint32_t> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return 0;
  if (b.size() / a.size() >= kGallopRatio) {
    return simd::GallopIntersectCountU32(a.data(), a.size(), b.data(),
                                         b.size());
  }
  return simd::MergeIntersectCountU32(a.data(), a.size(), b.data(),
                                      b.size());
}

}  // namespace mel::util

#endif  // MEL_UTIL_SORTED_INTERSECT_H_
