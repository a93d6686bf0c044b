// Property and adversarial tests for the vectorized kernel layer
// (util/simd). Every kernel variant the build supports — scalar and
// AVX2 — is checked for bit-identity against independently computed
// ground truth (std::set_intersection and straight-line reference loops),
// over randomized inputs and the adversarial shapes that historically
// break block-compare intersections: duplicates inside and across vector
// windows, all-equal lists, fully disjoint ranges, and sizes straddling
// both the kGallopRatio dispatch split and the 8-lane vector width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph_builder.h"
#include "util/random.h"
#include "util/simd/simd.h"
#include "util/sorted_intersect.h"

namespace mel {
namespace {

using util::simd::CpuFeatures;
using util::simd::KernelsFor;
using util::simd::Level;
using util::simd::LevelSupported;
using util::simd::ResolveLevel;

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (LevelSupported(Level::kAvx2)) levels.push_back(Level::kAvx2);
  return levels;
}

uint32_t GroundTruthIntersect(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return static_cast<uint32_t>(out.size());
}

// Sorted list of `n` values drawn from [0, universe); duplicates allowed
// and frequent when universe is small.
std::vector<uint32_t> RandomSorted(Rng& rng, size_t n,
                                   uint64_t universe) {
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = static_cast<uint32_t>(rng.Uniform(universe));
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------ dispatch

TEST(SimdDispatchTest, ResolveLevelHonorsOverridesAndClamps) {
  CpuFeatures none;
  CpuFeatures avx2;
  avx2.avx2 = true;
  // What auto-detection picks on an AVX2 host: AVX2 when this build
  // compiled the tier, scalar otherwise.
  const Level best =
      LevelSupported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;

  // No override: best the host+build supports.
  EXPECT_EQ(ResolveLevel(nullptr, none), Level::kScalar);
  EXPECT_EQ(ResolveLevel("", none), Level::kScalar);
  EXPECT_EQ(ResolveLevel(nullptr, avx2), best);

  // Explicit scalar always honored.
  EXPECT_EQ(ResolveLevel("scalar", avx2), Level::kScalar);

  // Requests above capability clamp down, never trap.
  EXPECT_EQ(ResolveLevel("avx2", none), Level::kScalar);

  // Unknown strings fall back to auto-detection; "sse4" names no tier.
  EXPECT_EQ(ResolveLevel("turbo", none), Level::kScalar);
  EXPECT_EQ(ResolveLevel("sse4", none), Level::kScalar);
  EXPECT_EQ(ResolveLevel("sse4", avx2), best);

  // Within capability (and when the tier is built), the request sticks.
  EXPECT_EQ(ResolveLevel("avx2", avx2), best);
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(LevelSupported(Level::kScalar));
  const util::simd::KernelTable& t = KernelsFor(Level::kScalar);
  EXPECT_NE(t.merge_count, nullptr);
  EXPECT_NE(t.gallop_count, nullptr);
  EXPECT_NE(t.probe_scan, nullptr);
  EXPECT_NE(t.frontier_and_not, nullptr);
}

TEST(SimdDispatchTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(util::simd::LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(util::simd::LevelName(Level::kAvx2), "avx2");
}

// -------------------------------------------------- intersection kernels

void CheckIntersectAllVariants(const std::vector<uint32_t>& a,
                               const std::vector<uint32_t>& b) {
  const uint32_t expected = GroundTruthIntersect(a, b);
  for (Level level : SupportedLevels()) {
    const auto& t = KernelsFor(level);
    EXPECT_EQ(t.merge_count(a.data(), a.size(), b.data(), b.size()), expected)
        << "merge level=" << util::simd::LevelName(level)
        << " |a|=" << a.size() << " |b|=" << b.size();
    EXPECT_EQ(t.merge_count(b.data(), b.size(), a.data(), a.size()), expected)
        << "merge swapped level=" << util::simd::LevelName(level);
    // The gallop kernel is exact for any sorted pair, not just skewed
    // ones; check both orientations too.
    EXPECT_EQ(t.gallop_count(a.data(), a.size(), b.data(), b.size()),
              expected)
        << "gallop level=" << util::simd::LevelName(level)
        << " |a|=" << a.size() << " |b|=" << b.size();
    EXPECT_EQ(t.gallop_count(b.data(), b.size(), a.data(), a.size()),
              expected)
        << "gallop swapped level=" << util::simd::LevelName(level);
  }
  // The public dispatcher (what wlm.cc / two_hop_index.cc call).
  EXPECT_EQ(util::SortedIntersectCount(std::span<const uint32_t>(a),
                                       std::span<const uint32_t>(b)),
            expected);
}

TEST(SimdIntersectTest, AdversarialShapes) {
  const std::vector<uint32_t> empty;
  const std::vector<uint32_t> one = {7};
  const std::vector<uint32_t> run17(17, 42);  // all-equal, straddles lanes
  std::vector<uint32_t> evens, odds;
  for (uint32_t i = 0; i < 64; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }

  CheckIntersectAllVariants(empty, empty);
  CheckIntersectAllVariants(empty, evens);
  CheckIntersectAllVariants(one, evens);
  CheckIntersectAllVariants(one, odds);
  CheckIntersectAllVariants(run17, run17);     // min-multiplicity = 17
  CheckIntersectAllVariants(run17, {41, 42});  // dup vs dup-free
  CheckIntersectAllVariants(evens, odds);      // fully disjoint, interleaved
  CheckIntersectAllVariants(evens, evens);     // identical lists

  // Duplicates positioned to span vector-window boundaries: a run of
  // nine 100s starting at index 7 crosses the 8-lane AVX2 window edge.
  std::vector<uint32_t> cross(7, 1);
  cross.insert(cross.end(), 9, 100);
  cross.insert(cross.end(), {200, 201, 202, 203, 204, 205, 206, 207});
  std::vector<uint32_t> probe = {100, 100, 100, 150, 200, 205};
  CheckIntersectAllVariants(cross, probe);

  // Unsigned-compare edge: values with the sign bit set must order
  // correctly through the sign-bias trick.
  std::vector<uint32_t> high = {0x7FFFFFFEu, 0x7FFFFFFFu, 0x80000000u,
                                0x80000001u, 0xFFFFFFFEu, 0xFFFFFFFFu,
                                0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu};
  std::vector<uint32_t> high2 = {0x0u,        0x7FFFFFFFu, 0x80000000u,
                                 0x80000002u, 0xFFFFFFFFu, 0xFFFFFFFFu,
                                 0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu};
  CheckIntersectAllVariants(high, high2);
}

TEST(SimdIntersectTest, SizesStraddlingDispatchAndLaneBoundaries) {
  Rng rng(DeriveSeed(0xC0FFEE, 1));
  // Sizes around the vector width (8) and around the ratio split:
  // |b| = |a| * kGallopRatio ± 1 flips SortedIntersectCount between the
  // merge and gallop kernels.
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33};
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      auto a = RandomSorted(rng, na, 64);
      auto b = RandomSorted(rng, nb, 64);
      CheckIntersectAllVariants(a, b);
    }
  }
  for (size_t na : {2u, 5u, 11u}) {
    for (long delta : {-1L, 0L, 1L}) {
      const size_t nb =
          static_cast<size_t>(static_cast<long>(na * util::kGallopRatio) +
                              delta);
      auto a = RandomSorted(rng, na, 1000);
      auto b = RandomSorted(rng, nb, 1000);
      CheckIntersectAllVariants(a, b);
    }
  }
}

TEST(SimdIntersectTest, RandomizedAgainstSetIntersection) {
  Rng rng(DeriveSeed(0xC0FFEE, 2));
  for (int round = 0; round < 200; ++round) {
    const size_t na = rng.Uniform(200);
    const size_t nb = rng.Uniform(200);
    // Alternate between duplicate-heavy (tiny universe) and sparse.
    const uint64_t universe = (round % 2 == 0) ? 32 : 4096;
    auto a = RandomSorted(rng, na, universe);
    auto b = RandomSorted(rng, nb, universe);
    CheckIntersectAllVariants(a, b);
  }
}

// -------------------------------------------------------- probe kernel

size_t ReferenceProbe(const std::vector<uint64_t>& keys, size_t mask,
                      uint64_t key, size_t start) {
  size_t idx = start;
  while (keys[idx] != key && keys[idx] != 0) idx = (idx + 1) & mask;
  return idx;
}

TEST(SimdProbeTest, MatchesReferenceIncludingWrap) {
  Rng rng(DeriveSeed(0xC0FFEE, 4));
  for (size_t cap : {4u, 8u, 16u, 64u, 1024u}) {
    const size_t mask = cap - 1;
    std::vector<uint64_t> keys(cap, 0);
    // ~60% load of distinct nonzero keys.
    std::vector<uint64_t> present;
    for (size_t i = 0; i < cap * 6 / 10; ++i) {
      const uint64_t k = rng.Next() | 1;  // nonzero
      const size_t idx =
          ReferenceProbe(keys, mask, k, (k * 0x9E3779B97F4A7C15ull) & mask);
      if (keys[idx] == 0) {
        keys[idx] = k;
        present.push_back(k);
      }
    }
    for (int round = 0; round < 100; ++round) {
      const uint64_t key = (round % 2 == 0 && !present.empty())
                               ? present[rng.Uniform(present.size())]
                               : (rng.Next() | 1);
      const size_t start = rng.Uniform(cap);  // forces wrap scans too
      const size_t expected = ReferenceProbe(keys, mask, key, start);
      for (Level level : SupportedLevels()) {
        EXPECT_EQ(KernelsFor(level).probe_scan(keys.data(), mask, key, start),
                  expected)
            << "level=" << util::simd::LevelName(level) << " cap=" << cap
            << " start=" << start;
      }
    }
  }
}

// ----------------------------------------------------- frontier kernel

TEST(SimdFrontierTest, MatchesScalarAndNot) {
  Rng rng(DeriveSeed(0xC0FFEE, 5));
  for (size_t nwords : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 64u, 129u}) {
    std::vector<uint64_t> next(nwords), visited(nwords);
    for (auto& w : next) w = rng.Next();
    for (auto& w : visited) w = rng.Next();
    std::vector<uint64_t> expected(nwords);
    for (size_t w = 0; w < nwords; ++w) expected[w] = next[w] & ~visited[w];
    for (Level level : SupportedLevels()) {
      std::vector<uint64_t> got = next;
      KernelsFor(level).frontier_and_not(got.data(), visited.data(), nwords);
      EXPECT_EQ(got, expected)
          << "level=" << util::simd::LevelName(level)
          << " nwords=" << nwords;
    }
  }
}

// ------------------------------------------------- BFS dense-vs-sparse

// Dense graphs force the bitset frontier path; the resulting distances
// must agree with a plain reference BFS, and Touched() must be the same
// set per level.
TEST(SimdBfsTest, DenseLevelsMatchReferenceBfs) {
  Rng rng(DeriveSeed(0xC0FFEE, 6));
  const uint32_t n = 200;
  graph::GraphBuilder builder(n);
  for (uint32_t u = 0; u < n; ++u) {
    // ~40 out-edges per node: the second BFS level covers most of the
    // graph, comfortably past the 1/8 density threshold.
    for (int e = 0; e < 40; ++e) {
      const uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
      if (v != u) builder.AddEdge(u, v);
    }
  }
  const graph::DirectedGraph g = std::move(builder).Build();

  graph::BfsScratch scratch(n);
  for (int round = 0; round < 8; ++round) {
    const graph::NodeId source =
        static_cast<graph::NodeId>(rng.Uniform(n));
    const uint32_t max_hops = 1 + static_cast<uint32_t>(rng.Uniform(4));
    scratch.RunForward(g, source, max_hops);

    // Reference: textbook queue BFS.
    std::vector<uint32_t> ref(n, graph::kUnreachable);
    std::vector<graph::NodeId> queue = {source};
    ref[source] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const graph::NodeId u = queue[head];
      if (ref[u] >= max_hops) continue;
      for (graph::NodeId v : g.OutNeighbors(u)) {
        if (ref[v] == graph::kUnreachable) {
          ref[v] = ref[u] + 1;
          queue.push_back(v);
        }
      }
    }

    size_t touched_count = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(scratch.Distance(v), ref[v]) << "v=" << v;
      if (ref[v] != graph::kUnreachable) ++touched_count;
    }
    EXPECT_EQ(scratch.Touched().size(), touched_count);
    // Touched() is grouped by level: distances must be non-decreasing.
    uint32_t prev = 0;
    for (graph::NodeId v : scratch.Touched()) {
      EXPECT_GE(scratch.Distance(v), prev);
      prev = scratch.Distance(v);
    }
  }
}

}  // namespace
}  // namespace mel
