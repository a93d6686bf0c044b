#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>

#include "graph/graph_builder.h"
#include "reach/distance_label_index.h"
#include "reach/naive_reachability.h"
#include "reach/pruned_online_search.h"
#include "reach/reach_maintainer.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mel::reach {
namespace {

using graph::DirectedGraph;
using graph::GraphBuilder;

DirectedGraph Chain(uint32_t n) {
  GraphBuilder b(n);
  for (uint32_t i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return std::move(b).Build();
}

DirectedGraph Diamond() {
  // 0 -> {1,2} -> 3 -> 4; plus 0 -> 5 (dead end)
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 5);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  return std::move(b).Build();
}

DirectedGraph RandomGraph(uint32_t n, double avg_degree, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  uint64_t edges = static_cast<uint64_t>(n * avg_degree);
  for (uint64_t i = 0; i < edges; ++i) {
    b.AddEdge(static_cast<graph::NodeId>(rng.Uniform(n)),
              static_cast<graph::NodeId>(rng.Uniform(n)));
  }
  return std::move(b).Build();
}

// ------------------------------------------------------------- semantics

TEST(NaiveReachabilityTest, DirectFolloweeScoresOne) {
  DirectedGraph g = Diamond();
  NaiveReachability naive(&g, 5);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(3, 4), 1.0);
}

TEST(NaiveReachabilityTest, SelfScoresOne) {
  DirectedGraph g = Diamond();
  NaiveReachability naive(&g, 5);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(5, 5), 1.0);
}

TEST(NaiveReachabilityTest, UnreachableScoresZero) {
  DirectedGraph g = Diamond();
  NaiveReachability naive(&g, 5);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(4, 0), 0.0);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(5, 3), 0.0);
}

TEST(NaiveReachabilityTest, Eq4OnDiamond) {
  DirectedGraph g = Diamond();
  NaiveReachability naive(&g, 5);
  // 0 -> 3: distance 2, followees on shortest paths = {1, 2} of
  // F_0 = {1, 2, 5}. R = (1/2) * (2/3).
  auto q = naive.Query(0, 3);
  EXPECT_EQ(q.distance, 2u);
  ASSERT_EQ(q.followees.size(), 2u);
  EXPECT_EQ(q.followees[0], 1u);
  EXPECT_EQ(q.followees[1], 2u);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(0, 3), 0.5 * 2.0 / 3.0);
  // 0 -> 4: distance 3, same two followees participate.
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(0, 4), (1.0 / 3.0) * (2.0 / 3.0));
}

TEST(NaiveReachabilityTest, HopBoundLimitsReach) {
  DirectedGraph g = Chain(10);
  NaiveReachability naive(&g, 3);
  EXPECT_GT(naive.ScoreOnly(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(naive.ScoreOnly(0, 4), 0.0);  // distance 4 > H = 3
}

// --------------------------------------------------- transitive closure

TEST(TransitiveClosureTest, IncrementalMatchesDefinitionOnDiamond) {
  DirectedGraph g = Diamond();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_DOUBLE_EQ(tc.ScoreOnly(0, 1), 1.0);
  EXPECT_FLOAT_EQ(tc.ScoreOnly(0, 3), 0.5f * 2.0f / 3.0f);
  EXPECT_FLOAT_EQ(tc.ScoreOnly(0, 4), (1.0f / 3.0f) * (2.0f / 3.0f));
  EXPECT_DOUBLE_EQ(tc.ScoreOnly(4, 0), 0.0);
  EXPECT_DOUBLE_EQ(tc.ScoreOnly(2, 2), 1.0);
  EXPECT_EQ(tc.Distance(0, 3), 2u);
  EXPECT_EQ(tc.Distance(0, 4), 3u);
  EXPECT_EQ(tc.Distance(4, 0), kUnreachableDistance);
}

TEST(TransitiveClosureTest, NaiveConstructionAgreesWithIncremental) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    DirectedGraph g = RandomGraph(40, 2.5, seed);
    auto naive_tc = TransitiveClosureIndex::Build(
        &g, 4, TransitiveClosureIndex::Construction::kNaive);
    auto inc_tc = TransitiveClosureIndex::Build(
        &g, 4, TransitiveClosureIndex::Construction::kIncremental);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(naive_tc.Distance(u, v), inc_tc.Distance(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
        EXPECT_FLOAT_EQ(naive_tc.ScoreOnly(u, v), inc_tc.ScoreOnly(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
      }
    }
  }
}

TEST(TransitiveClosureTest, QueryReconstructsFollowees) {
  DirectedGraph g = Diamond();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  auto q = tc.Query(0, 4);
  EXPECT_EQ(q.distance, 3u);
  ASSERT_EQ(q.followees.size(), 2u);
  EXPECT_EQ(q.followees[0], 1u);
  EXPECT_EQ(q.followees[1], 2u);
}

TEST(TransitiveClosureTest, IndexSizeAccounting) {
  DirectedGraph g = Diamond();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_EQ(tc.IndexSizeBytes(), 6ull * 6 * 5);
}

// ----------------------------------------------------------- 2-hop cover

TEST(TwoHopIndexTest, MatchesDefinitionOnDiamond) {
  DirectedGraph g = Diamond();
  auto index = TwoHopIndex::Build(&g, 5);
  EXPECT_DOUBLE_EQ(index.ScoreOnly(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(index.ScoreOnly(0, 3), 0.5 * 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(index.ScoreOnly(0, 4), (1.0 / 3.0) * (2.0 / 3.0));
  EXPECT_DOUBLE_EQ(index.ScoreOnly(4, 0), 0.0);
  EXPECT_DOUBLE_EQ(index.ScoreOnly(1, 1), 1.0);
}

TEST(TwoHopIndexTest, QueryReturnsSortedFollowees) {
  DirectedGraph g = Diamond();
  auto index = TwoHopIndex::Build(&g, 5);
  auto q = index.Query(0, 4);
  EXPECT_EQ(q.distance, 3u);
  ASSERT_EQ(q.followees.size(), 2u);
  EXPECT_EQ(q.followees[0], 1u);
  EXPECT_EQ(q.followees[1], 2u);
}

TEST(TwoHopIndexTest, HopBoundRespected) {
  DirectedGraph g = Chain(12);
  auto index = TwoHopIndex::Build(&g, 4);
  EXPECT_GT(index.ScoreOnly(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(index.ScoreOnly(0, 5), 0.0);
  auto q = index.Query(0, 5);
  EXPECT_FALSE(q.reachable());
}

TEST(TwoHopIndexTest, LabelEntriesAndSizeNonZero) {
  DirectedGraph g = Diamond();
  auto index = TwoHopIndex::Build(&g, 5);
  EXPECT_GT(index.TotalLabelEntries(), 0u);
  EXPECT_GT(index.IndexSizeBytes(), 0u);
}

// -------------------------------------- cross-backend property checking

struct BackendConsistencyParam {
  uint32_t nodes;
  double avg_degree;
  uint32_t max_hops;
  uint64_t seed;
};

// gtest names each case after its printed parameter, and its default
// printer dumps the raw object bytes, padding included; the padding
// holds whatever the stack held, so the names changed between builds.
// Print the same dump with the padding zeroed so the names are stable.
void PrintTo(const BackendConsistencyParam& p, std::ostream* os) {
  unsigned char bytes[sizeof(BackendConsistencyParam)] = {};
  auto put = [&bytes](size_t offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof(field));
  };
  put(offsetof(BackendConsistencyParam, nodes), p.nodes);
  put(offsetof(BackendConsistencyParam, avg_degree), p.avg_degree);
  put(offsetof(BackendConsistencyParam, max_hops), p.max_hops);
  put(offsetof(BackendConsistencyParam, seed), p.seed);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(bytes), os);
}

class BackendConsistencyTest
    : public ::testing::TestWithParam<BackendConsistencyParam> {};

TEST_P(BackendConsistencyTest, AllBackendsAgree) {
  const auto& p = GetParam();
  DirectedGraph g = RandomGraph(p.nodes, p.avg_degree, p.seed);
  NaiveReachability naive(&g, p.max_hops);
  auto tc = TransitiveClosureIndex::Build(
      &g, p.max_hops, TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = TwoHopIndex::Build(&g, p.max_hops);

  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto nq = naive.Query(u, v);
      auto tq = tc.Query(u, v);
      auto hq = two_hop.Query(u, v);
      ASSERT_EQ(nq.distance, tq.distance)
          << "TC distance mismatch " << u << "->" << v << " seed " << p.seed;
      ASSERT_EQ(nq.distance, hq.distance)
          << "2hop distance mismatch " << u << "->" << v << " seed "
          << p.seed;
      ASSERT_EQ(nq.followees, tq.followees)
          << "TC followees mismatch " << u << "->" << v << " seed "
          << p.seed;
      ASSERT_EQ(nq.followees, hq.followees)
          << "2hop followees mismatch " << u << "->" << v << " seed "
          << p.seed;
      ASSERT_NEAR(naive.ScoreOnly(u, v), tc.ScoreOnly(u, v), 1e-6);
      ASSERT_NEAR(naive.ScoreOnly(u, v), two_hop.ScoreOnly(u, v), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BackendConsistencyTest,
    ::testing::Values(BackendConsistencyParam{20, 1.5, 4, 11},
                      BackendConsistencyParam{30, 2.0, 5, 12},
                      BackendConsistencyParam{40, 3.0, 3, 13},
                      BackendConsistencyParam{50, 1.0, 6, 14},
                      BackendConsistencyParam{25, 4.0, 4, 15},
                      BackendConsistencyParam{60, 2.5, 5, 16},
                      BackendConsistencyParam{35, 0.5, 8, 17},
                      BackendConsistencyParam{45, 5.0, 3, 18}));

// Dense cyclic graphs stress the equality branch of Algorithm 2.
TEST(TwoHopIndexTest, CyclicGraphConsistency) {
  GraphBuilder b(8);
  for (uint32_t i = 0; i < 8; ++i) {
    b.AddEdge(i, (i + 1) % 8);
    b.AddEdge(i, (i + 3) % 8);
  }
  DirectedGraph g = std::move(b).Build();
  NaiveReachability naive(&g, 6);
  auto index = TwoHopIndex::Build(&g, 6);
  for (graph::NodeId u = 0; u < 8; ++u) {
    for (graph::NodeId v = 0; v < 8; ++v) {
      auto nq = naive.Query(u, v);
      auto hq = index.Query(u, v);
      EXPECT_EQ(nq.distance, hq.distance) << u << "->" << v;
      EXPECT_EQ(nq.followees, hq.followees) << u << "->" << v;
    }
  }
}

// ------------------------------------------- distance-only PLL ablation

TEST(DistanceLabelIndexTest, MatchesNaiveOnRandomGraphs) {
  for (uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    DirectedGraph g = RandomGraph(40, 2.5, seed);
    NaiveReachability naive(&g, 5);
    auto index = DistanceLabelIndex::Build(&g, 5);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto nq = naive.Query(u, v);
        auto dq = index.Query(u, v);
        ASSERT_EQ(nq.distance, dq.distance)
            << u << "->" << v << " seed " << seed;
        ASSERT_EQ(nq.followees, dq.followees)
            << u << "->" << v << " seed " << seed;
      }
    }
  }
}

TEST(DistanceLabelIndexTest, SmallerThanFolloweeCarryingIndex) {
  DirectedGraph g = RandomGraph(200, 4.0, 31);
  auto full = TwoHopIndex::Build(&g, 5);
  auto dist_only = DistanceLabelIndex::Build(&g, 5);
  EXPECT_LT(dist_only.IndexSizeBytes(), full.IndexSizeBytes());
  // Both agree on scores.
  Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    auto u = static_cast<graph::NodeId>(rng.Uniform(200));
    auto v = static_cast<graph::NodeId>(rng.Uniform(200));
    ASSERT_DOUBLE_EQ(full.ScoreOnly(u, v), dist_only.ScoreOnly(u, v));
  }
}

// ------------------------------------------- pruned online search

TEST(PrunedOnlineSearchTest, MatchesNaiveOnRandomGraphs) {
  for (uint64_t seed : {51ULL, 52ULL, 53ULL}) {
    DirectedGraph g = RandomGraph(40, 2.0, seed);
    NaiveReachability naive(&g, 5);
    auto index = PrunedOnlineSearch::Build(&g, 5, 3, seed);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto nq = naive.Query(u, v);
        auto pq = index.Query(u, v);
        ASSERT_EQ(nq.distance, pq.distance)
            << u << "->" << v << " seed " << seed;
        ASSERT_EQ(nq.followees, pq.followees)
            << u << "->" << v << " seed " << seed;
      }
    }
  }
}

TEST(PrunedOnlineSearchTest, IntervalsNeverPruneReachablePairs) {
  // Soundness: DefinitelyUnreachable must never fire for a pair that IS
  // reachable (with no hop bound).
  for (uint64_t seed : {61ULL, 62ULL}) {
    DirectedGraph g = RandomGraph(60, 2.5, seed);
    auto index = PrunedOnlineSearch::Build(&g, 60, 2, seed);
    NaiveReachability naive(&g, 60);  // effectively unbounded
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        if (u == v) continue;
        if (naive.Query(u, v).reachable()) {
          ASSERT_FALSE(index.DefinitelyUnreachable(u, v))
              << u << "->" << v << " seed " << seed;
        }
      }
    }
  }
}

TEST(PrunedOnlineSearchTest, PrunesSomethingOnChains) {
  // On a chain, later nodes provably cannot reach earlier ones.
  DirectedGraph g = Chain(20);
  auto index = PrunedOnlineSearch::Build(&g, 20, 2, 7);
  uint32_t pruned = 0;
  for (graph::NodeId u = 0; u < 20; ++u) {
    for (graph::NodeId v = 0; v < u; ++v) {
      if (index.DefinitelyUnreachable(u, v)) ++pruned;
    }
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_EQ(index.num_components(), 20u);
  EXPECT_GT(index.IndexSizeBytes(), 0u);
}

TEST(PrunedOnlineSearchTest, CyclesCollapseToOneComponent) {
  GraphBuilder b(6);
  for (uint32_t i = 0; i < 6; ++i) b.AddEdge(i, (i + 1) % 6);
  DirectedGraph g = std::move(b).Build();
  auto index = PrunedOnlineSearch::Build(&g, 6, 2, 9);
  EXPECT_EQ(index.num_components(), 1u);
  // Everything reaches everything; no pruning may fire.
  for (graph::NodeId u = 0; u < 6; ++u) {
    for (graph::NodeId v = 0; v < 6; ++v) {
      EXPECT_FALSE(index.DefinitelyUnreachable(u, v));
    }
  }
}

// ---------------------------------------------- dynamic edge insertion

TEST(TransitiveClosureInsertTest, MatchesRebuildAfterInsertions) {
  Rng rng(41);
  for (int trial = 0; trial < 5; ++trial) {
    const uint32_t n = 30;
    // Base edges.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    for (int i = 0; i < 60; ++i) {
      auto a = static_cast<graph::NodeId>(rng.Uniform(n));
      auto b = static_cast<graph::NodeId>(rng.Uniform(n));
      if (a != b) edges.emplace_back(a, b);
    }
    GraphBuilder base_builder(n);
    for (auto [a, b] : edges) base_builder.AddEdge(a, b);
    DirectedGraph base = std::move(base_builder).Build();
    auto dynamic_tc = TransitiveClosureIndex::Build(
        &base, 4, TransitiveClosureIndex::Construction::kIncremental);

    // Insert a handful of new edges one by one.
    for (int k = 0; k < 8; ++k) {
      auto a = static_cast<graph::NodeId>(rng.Uniform(n));
      auto b = static_cast<graph::NodeId>(rng.Uniform(n));
      if (a == b) continue;
      bool inserted = dynamic_tc.InsertEdge(a, b);
      if (inserted) edges.emplace_back(a, b);

      GraphBuilder rebuilt_builder(n);
      for (auto [x, y] : edges) rebuilt_builder.AddEdge(x, y);
      DirectedGraph rebuilt_graph = std::move(rebuilt_builder).Build();
      auto rebuilt = TransitiveClosureIndex::Build(
          &rebuilt_graph, 4,
          TransitiveClosureIndex::Construction::kIncremental);

      for (graph::NodeId u = 0; u < n; ++u) {
        for (graph::NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(dynamic_tc.Distance(u, v), rebuilt.Distance(u, v))
              << "trial " << trial << " after insert " << a << "->" << b
              << " pair " << u << "->" << v;
          ASSERT_NEAR(dynamic_tc.ScoreOnly(u, v), rebuilt.ScoreOnly(u, v), 1e-6)
              << "trial " << trial << " after insert " << a << "->" << b
              << " pair " << u << "->" << v;
        }
      }
    }
  }
}

TEST(TransitiveClosureInsertTest, DuplicateAndSelfEdgesRejected) {
  DirectedGraph g = Diamond();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_FALSE(tc.InsertEdge(0, 0));
  EXPECT_FALSE(tc.InsertEdge(0, 1));  // already in the base graph
  EXPECT_TRUE(tc.InsertEdge(5, 4));
  EXPECT_FALSE(tc.InsertEdge(5, 4));  // already in the overlay
}

TEST(TransitiveClosureInsertTest, NewEdgeCreatesReachability) {
  // Chain 0 -> 1 -> 2; inserting 2 -> 3 connects node 3.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  DirectedGraph g = std::move(b).Build();
  auto tc = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_DOUBLE_EQ(tc.ScoreOnly(0, 3), 0.0);
  ASSERT_TRUE(tc.InsertEdge(2, 3));
  EXPECT_EQ(tc.Distance(2, 3), 1u);
  EXPECT_DOUBLE_EQ(tc.ScoreOnly(2, 3), 1.0);
  EXPECT_EQ(tc.Distance(0, 3), 3u);
  // 0's single followee 1 lies on the shortest path: R = 1/3 * 1/1.
  EXPECT_NEAR(tc.ScoreOnly(0, 3), 1.0 / 3.0, 1e-6);
  // Node 2 had no followees in the base graph; the overlay adds one.
  EXPECT_EQ(tc.CurrentOutDegree(2), 1u);
}

TEST(TransitiveClosureInsertTest, InsertShortensExistingDistance) {
  // 0 -> 1 -> 2 -> 3 -> 4; inserting 0 -> 3 shortens 0~>4 from 4 to 2.
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  DirectedGraph g = std::move(b).Build();
  auto tc = TransitiveClosureIndex::Build(
      &g, 6, TransitiveClosureIndex::Construction::kIncremental);
  EXPECT_EQ(tc.Distance(0, 4), 4u);
  ASSERT_TRUE(tc.InsertEdge(0, 3));
  EXPECT_EQ(tc.Distance(0, 4), 2u);
  // F_04 = {3} of followees {1, 3}: R = 1/2 * 1/2.
  EXPECT_NEAR(tc.ScoreOnly(0, 4), 0.25, 1e-6);
  auto q = tc.Query(0, 4);
  ASSERT_EQ(q.followees.size(), 1u);
  EXPECT_EQ(q.followees[0], 3u);
}

// ScoreOnlyMany(u, vs) must equal per-pair ScoreOnly on the same backend
// bitwise, and the naive BFS backend bitwise too, except for the
// transitive closure, which stores float scores. The slot past
// vs.size() must stay unwritten.
void ExpectScoreOnlyManyMatches(const WeightedReachability& backend,
                                const WeightedReachability& naive,
                                graph::NodeId u,
                                const std::vector<graph::NodeId>& vs) {
  std::vector<double> out(vs.size() + 1, -7.0);
  backend.ScoreOnlyMany(u, vs, out.data());
  const double tol =
      std::string_view(backend.Name()) == "transitive-closure" ? 1e-6 : 0;
  for (size_t i = 0; i < vs.size(); ++i) {
    ASSERT_EQ(out[i], backend.ScoreOnly(u, vs[i]))
        << backend.Name() << " " << u << "->" << vs[i];
    ASSERT_NEAR(out[i], naive.ScoreOnly(u, vs[i]), tol)
        << backend.Name() << " " << u << "->" << vs[i];
  }
  ASSERT_EQ(out.back(), -7.0) << backend.Name() << " u=" << u;
}

// Every node as a target (u itself, its followees, unreachable and
// beyond-H nodes), then all again in reverse, so targets repeat.
std::vector<graph::NodeId> AllNodesTwice(uint32_t n) {
  std::vector<graph::NodeId> vs;
  for (graph::NodeId v = 0; v < n; ++v) vs.push_back(v);
  for (graph::NodeId v = n; v-- > 0;) vs.push_back(v);
  return vs;
}

// ------------------------------------- graph-family property sweeps

enum class GraphFamily {
  kChain,
  kCycle,
  kStarOut,    // hub follows everyone
  kStarIn,     // everyone follows the hub
  kComplete,
  kBipartite,  // layer A -> layer B
  kBinaryTree,
};

const char* FamilyName(GraphFamily family) {
  switch (family) {
    case GraphFamily::kChain: return "chain";
    case GraphFamily::kCycle: return "cycle";
    case GraphFamily::kStarOut: return "star-out";
    case GraphFamily::kStarIn: return "star-in";
    case GraphFamily::kComplete: return "complete";
    case GraphFamily::kBipartite: return "bipartite";
    case GraphFamily::kBinaryTree: return "binary-tree";
  }
  return "?";
}

DirectedGraph MakeFamily(GraphFamily family, uint32_t n) {
  GraphBuilder b(n);
  switch (family) {
    case GraphFamily::kChain:
      for (uint32_t i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
      break;
    case GraphFamily::kCycle:
      for (uint32_t i = 0; i < n; ++i) b.AddEdge(i, (i + 1) % n);
      break;
    case GraphFamily::kStarOut:
      for (uint32_t i = 1; i < n; ++i) b.AddEdge(0, i);
      break;
    case GraphFamily::kStarIn:
      for (uint32_t i = 1; i < n; ++i) b.AddEdge(i, 0);
      break;
    case GraphFamily::kComplete:
      for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
          if (i != j) b.AddEdge(i, j);
        }
      }
      break;
    case GraphFamily::kBipartite:
      for (uint32_t i = 0; i < n / 2; ++i) {
        for (uint32_t j = n / 2; j < n; ++j) b.AddEdge(i, j);
      }
      break;
    case GraphFamily::kBinaryTree:
      for (uint32_t i = 1; i < n; ++i) b.AddEdge((i - 1) / 2, i);
      break;
  }
  return std::move(b).Build();
}

class GraphFamilyTest : public ::testing::TestWithParam<GraphFamily> {};

TEST_P(GraphFamilyTest, AllBackendsAgreeEverywhere) {
  const GraphFamily family = GetParam();
  DirectedGraph g = MakeFamily(family, 18);
  NaiveReachability naive(&g, 6);
  auto tc = TransitiveClosureIndex::Build(
      &g, 6, TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = TwoHopIndex::Build(&g, 6);
  auto dist_only = DistanceLabelIndex::Build(&g, 6);
  auto pruned = PrunedOnlineSearch::Build(&g, 6, 2, 3);

  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto expected = naive.Query(u, v);
      for (const reach::WeightedReachability* backend :
           {static_cast<const reach::WeightedReachability*>(&tc),
            static_cast<const reach::WeightedReachability*>(&two_hop),
            static_cast<const reach::WeightedReachability*>(&dist_only),
            static_cast<const reach::WeightedReachability*>(&pruned)}) {
        auto actual = backend->Query(u, v);
        ASSERT_EQ(expected.distance, actual.distance)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
        ASSERT_EQ(expected.followees, actual.followees)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GraphFamilyTest,
    ::testing::Values(GraphFamily::kChain, GraphFamily::kCycle,
                      GraphFamily::kStarOut, GraphFamily::kStarIn,
                      GraphFamily::kComplete, GraphFamily::kBipartite,
                      GraphFamily::kBinaryTree),
    [](const ::testing::TestParamInfo<GraphFamily>& info) {
      std::string name = FamilyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Count-only fast path: CountQuery must report exactly (distance,
// |F_uv|) of the materializing Query, and ScoreOnly must be bitwise
// equal to the Eq.-4 score of that Query, on every backend but the
// float-scored transitive closure (both funnel through
// WeightedScoreFromCount, so any divergence is a counting bug); the
// one-to-many ScoreOnlyMany must match per-pair ScoreOnly.
TEST_P(GraphFamilyTest, CountQueryAndScoreOnlyMatchQueryEverywhere) {
  const GraphFamily family = GetParam();
  DirectedGraph g = MakeFamily(family, 18);
  NaiveReachability naive(&g, 6);
  auto tc = TransitiveClosureIndex::Build(
      &g, 6, TransitiveClosureIndex::Construction::kIncremental);
  auto two_hop = TwoHopIndex::Build(&g, 6);
  auto dist_only = DistanceLabelIndex::Build(&g, 6);
  auto pruned = PrunedOnlineSearch::Build(&g, 6, 2, 3);
  const auto vs = AllNodesTwice(g.num_nodes());

  for (const reach::WeightedReachability* backend :
       {static_cast<const reach::WeightedReachability*>(&naive),
        static_cast<const reach::WeightedReachability*>(&tc),
        static_cast<const reach::WeightedReachability*>(&two_hop),
        static_cast<const reach::WeightedReachability*>(&dist_only),
        static_cast<const reach::WeightedReachability*>(&pruned)}) {
    const double tol = backend == &tc ? 1e-6 : 0.0;
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto full = backend->Query(u, v);
        auto count = backend->CountQuery(u, v);
        ASSERT_EQ(full.distance, count.distance)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
        ASSERT_EQ(full.followees.size(), count.followee_count)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
        ASSERT_NEAR(WeightedScore(full, g.OutDegree(u), u == v),
                    backend->ScoreOnly(u, v), tol)
            << FamilyName(family) << " " << backend->Name() << " " << u
            << "->" << v;
      }
      ExpectScoreOnlyManyMatches(*backend, naive, u, vs);
    }
  }
}

TEST(TwoHopIndexTest, CountQueryMatchesQueryOnRandomGraphs) {
  for (uint64_t seed : {71ULL, 72ULL, 73ULL}) {
    DirectedGraph g = RandomGraph(50, 3.0, seed);
    auto index = TwoHopIndex::Build(&g, 5);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto full = index.Query(u, v);
        auto count = index.CountQuery(u, v);
        ASSERT_EQ(full.distance, count.distance)
            << "seed " << seed << " " << u << "->" << v;
        ASSERT_EQ(full.followees.size(), count.followee_count)
            << "seed " << seed << " " << u << "->" << v;
        ASSERT_EQ(WeightedScore(full, g.OutDegree(u), u == v),
                  index.ScoreOnly(u, v))
            << "seed " << seed << " " << u << "->" << v;
      }
    }
  }
}

// Regression for the k-way merge that replaced concat+sort+unique: the
// union over several overlapping min-distance hub spans must come out
// sorted and duplicate-free. Dense graphs give every pair many meeting
// hubs whose followee spans overlap heavily.
TEST(TwoHopIndexTest, KWayMergeYieldsSortedDupFreeFollowees) {
  for (uint64_t seed : {81ULL, 82ULL}) {
    DirectedGraph g = RandomGraph(30, 6.0, seed);
    auto index = TwoHopIndex::Build(&g, 4);
    NaiveReachability naive(&g, 4);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        auto q = index.Query(u, v);
        for (size_t i = 1; i < q.followees.size(); ++i) {
          ASSERT_LT(q.followees[i - 1], q.followees[i])
              << "seed " << seed << " " << u << "->" << v
              << ": followees not strictly increasing";
        }
        ASSERT_EQ(naive.Query(u, v).followees, q.followees)
            << "seed " << seed << " " << u << "->" << v;
      }
    }
  }
}

// Arena layout invariants: offsets bracket the arenas and accessors
// agree with the aggregate counters.
TEST(TwoHopIndexTest, ArenaAccountingAndSpans) {
  DirectedGraph g = RandomGraph(60, 3.0, 91);
  auto index = TwoHopIndex::Build(&g, 5);
  uint64_t in_total = 0, out_total = 0, followee_total = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    in_total += index.in_labels(v).size();
    auto outs = index.out_labels(v);
    out_total += outs.size();
    for (size_t i = 0; i < outs.size(); ++i) {
      followee_total +=
          index.followees(index.out_offset(v) + i).size();
    }
  }
  EXPECT_EQ(in_total, index.NumInEntries());
  EXPECT_EQ(out_total, index.NumOutEntries());
  EXPECT_EQ(followee_total, index.NumFolloweeIds());
  EXPECT_EQ(index.TotalLabelEntries(), in_total + out_total);
}

// Empty graph: every per-node label list is empty, offsets are all zero,
// and queries stay well-defined.
TEST(TwoHopIndexTest, EmptyLabelGraph) {
  GraphBuilder b(5);
  DirectedGraph g = std::move(b).Build();
  auto index = TwoHopIndex::Build(&g, 5);
  EXPECT_EQ(index.NumFolloweeIds(), 0u);
  for (graph::NodeId u = 0; u < 5; ++u) {
    for (graph::NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(index.ScoreOnly(u, v), u == v ? 1.0 : 0.0);
      auto count = index.CountQuery(u, v);
      if (u != v) {
        EXPECT_FALSE(count.reachable());
      }
    }
  }
}

// Scores must always be inside [0, 1].
TEST(WeightedScoreTest, RangeProperty) {
  DirectedGraph g = RandomGraph(80, 3.0, 99);
  NaiveReachability naive(&g, 5);
  for (graph::NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (graph::NodeId v = 0; v < g.num_nodes(); v += 2) {
      double s = naive.ScoreOnly(u, v);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

// ------------------------------------------------- parallel construction

std::string SaveToTempBytes(const std::string& name,
                            const std::function<Status(const std::string&)>&
                                save) {
  std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  EXPECT_TRUE(save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>{});
  std::remove(path.c_str());
  return bytes;
}

// The acceptance bar for the parallel builds: not "equivalent", but
// bit-identical to the 1-thread build, proven via Save bytes on top of
// the per-pair Score/Distance comparison.
TEST(ParallelBuildTest, TcIncrementalMatchesSerialOnRandomGraphs) {
  util::ThreadPool serial(1);
  util::ThreadPool parallel(4);
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    DirectedGraph g = RandomGraph(60, 3.0, seed);
    auto a = TransitiveClosureIndex::Build(
        &g, 5, TransitiveClosureIndex::Construction::kIncremental, &serial);
    auto b = TransitiveClosureIndex::Build(
        &g, 5, TransitiveClosureIndex::Construction::kIncremental,
        &parallel);
    EXPECT_EQ(a.IndexSizeBytes(), b.IndexSizeBytes());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(a.Distance(u, v), b.Distance(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
        ASSERT_EQ(a.ScoreOnly(u, v), b.ScoreOnly(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
      }
    }
    auto save_a = SaveToTempBytes("tc_serial.idx", [&](const auto& p) {
      return a.Save(p);
    });
    auto save_b = SaveToTempBytes("tc_parallel.idx", [&](const auto& p) {
      return b.Save(p);
    });
    EXPECT_FALSE(save_a.empty());
    EXPECT_EQ(save_a, save_b);
  }
}

TEST(ParallelBuildTest, TcNaiveMatchesSerial) {
  util::ThreadPool serial(1);
  util::ThreadPool parallel(4);
  DirectedGraph g = RandomGraph(40, 2.5, 11);
  auto a = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kNaive, &serial);
  auto b = TransitiveClosureIndex::Build(
      &g, 5, TransitiveClosureIndex::Construction::kNaive, &parallel);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(a.Distance(u, v), b.Distance(u, v));
      ASSERT_EQ(a.ScoreOnly(u, v), b.ScoreOnly(u, v));
    }
  }
}

TEST(ParallelBuildTest, TwoHopMatchesSerialOnRandomGraphs) {
  util::ThreadPool serial(1);
  util::ThreadPool parallel(4);
  for (uint64_t seed : {4ull, 5ull, 6ull}) {
    DirectedGraph g = RandomGraph(60, 3.0, seed);
    auto a = TwoHopIndex::Build(&g, 5, &serial);
    auto b = TwoHopIndex::Build(&g, 5, &parallel);
    EXPECT_EQ(a.TotalLabelEntries(), b.TotalLabelEntries());
    EXPECT_EQ(a.IndexSizeBytes(), b.IndexSizeBytes());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(a.ScoreOnly(u, v), b.ScoreOnly(u, v))
            << "seed " << seed << " pair " << u << "->" << v;
      }
    }
    auto save_a = SaveToTempBytes("hop_serial.idx", [&](const auto& p) {
      return a.Save(p);
    });
    auto save_b = SaveToTempBytes("hop_parallel.idx", [&](const auto& p) {
      return b.Save(p);
    });
    EXPECT_FALSE(save_a.empty());
    EXPECT_EQ(save_a, save_b);
  }
}

// Query objects share nothing mutable anymore (per-thread BFS scratch),
// so concurrent queries on one instance must agree with serial answers.
TEST(ParallelBuildTest, NaiveReachabilityConcurrentQueriesAreSafe) {
  DirectedGraph g = RandomGraph(50, 3.0, 21);
  NaiveReachability naive(&g, 5);
  std::vector<double> expected(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    expected[v] = naive.ScoreOnly(0, v);
  }
  util::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(0, g.num_nodes(), 1, [&](size_t v) {
    if (naive.ScoreOnly(0, static_cast<graph::NodeId>(v)) != expected[v]) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// The 2-hop query path keeps a per-thread hub table and span scratch;
// concurrent ScoreOnly/ScoreOnlyMany/CountQuery readers on one instance
// must agree with serial answers (exercised under TSan via the Parallel
// filter in verify.sh).
TEST(ParallelBuildTest, TwoHopConcurrentScoreOnlyReadersAgree) {
  DirectedGraph g = RandomGraph(60, 3.0, 23);
  auto index = TwoHopIndex::Build(&g, 5);
  std::vector<double> expected(g.num_nodes());
  std::vector<graph::NodeId> all(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    expected[v] = index.ScoreOnly(7, v);
    all[v] = v;
  }
  util::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(0, g.num_nodes() * 8u, 1, [&](size_t i) {
    auto v = static_cast<graph::NodeId>(i % g.num_nodes());
    if (index.ScoreOnly(7, v) != expected[v]) mismatches.fetch_add(1);
    std::vector<double> many(g.num_nodes());
    index.ScoreOnlyMany(7, all, many.data());
    if (many != expected) mismatches.fetch_add(1);
    auto count = index.CountQuery(7, v);
    auto full = index.Query(7, v);
    if (count.distance != full.distance ||
        count.followee_count != full.followees.size()) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ----------------------------------------------- one-to-many ScoreOnly

// Hand-checked corners of the walk on the chain 0 -> 1 -> ... -> 7 with
// H = 3: u among its own targets and a followee (1), d_uv = 2 and 3 over
// the single followee (1/2, 1/3), d_uv > H (0), upstream targets
// (unreachable, 0), a sink author, and an empty target list.
TEST(ScoreOnlyManyTest, TwoHopCornerCases) {
  DirectedGraph g = Chain(8);
  NaiveReachability naive(&g, 3);
  auto two_hop = TwoHopIndex::Build(&g, 3);
  auto scores = [&](graph::NodeId u, const std::vector<graph::NodeId>& vs) {
    ExpectScoreOnlyManyMatches(two_hop, naive, u, vs);
    std::vector<double> out(vs.size());
    two_hop.ScoreOnlyMany(u, vs, out.data());
    return out;
  };
  EXPECT_EQ(scores(0, {0, 1, 2, 3, 4, 7, 0}),
            (std::vector<double>{1, 1, 0.5, 1.0 / 3, 0, 0, 1}));
  EXPECT_EQ(scores(5, {0, 4, 6, 7}), (std::vector<double>{0, 0, 1, 0.5}));
  EXPECT_EQ(scores(7, {7, 0, 6, 3}), (std::vector<double>{1, 0, 0, 0}));
  double untouched = -1.0;
  two_hop.ScoreOnlyMany(3, {}, &untouched);
  EXPECT_EQ(untouched, -1.0);
}

// After insert patches (labels patched in place) and erases (index
// rebuilt), ScoreOnlyMany still matches the naive BFS on the mutated
// graph.
TEST(ScoreOnlyManyTest, TwoHopMatchesAfterInsertPatchAndEraseRebuild) {
  DirectedGraph g = RandomGraph(60, 2.0, 57);
  NaiveReachability naive(&g, 4);
  auto two_hop = TwoHopIndex::Build(&g, 4);
  ReachMaintainer maintainer(&g, 4);
  maintainer.Register(&two_hop);
  Rng rng(58);
  int applied = 0;
  while (applied < 6) {
    // Four inserts, then two erases of an existing edge.
    graph::EdgeDelta delta;
    delta.u = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    const bool erase = applied >= 4;
    if (erase && g.OutDegree(delta.u) == 0) continue;
    delta.op = erase ? graph::EdgeDelta::Op::kErase
                     : graph::EdgeDelta::Op::kInsert;
    delta.v = erase ? g.OutNeighbors(delta.u)[0]
                    : static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    const auto result = maintainer.ApplyDelta(delta);
    if (!result.applied) continue;
    ++applied;
    ASSERT_EQ(result.results.front(), erase ? MutationResult::kRebuilt
                                            : MutationResult::kPatched);
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      ExpectScoreOnlyManyMatches(two_hop, naive, u,
                                 AllNodesTwice(g.num_nodes()));
    }
  }
}

// The hub table is per thread and shared by every index the thread
// queries. Alternating a 20-node and a 90-node index, one-to-many and
// per-pair, must never let a hub scattered for one answer the other.
TEST(ScoreOnlyManyTest, AlternatingIndexesOfDifferentSizesOnOneThread) {
  DirectedGraph small_g = RandomGraph(20, 2.5, 61);
  DirectedGraph large_g = RandomGraph(90, 2.5, 62);
  NaiveReachability small_naive(&small_g, 4);
  NaiveReachability large_naive(&large_g, 4);
  auto small = TwoHopIndex::Build(&small_g, 4);
  auto large = TwoHopIndex::Build(&large_g, 4);
  for (graph::NodeId u = 0; u < 90; ++u) {
    ExpectScoreOnlyManyMatches(large, large_naive, u, AllNodesTwice(90));
    ExpectScoreOnlyManyMatches(small, small_naive, u % 20, AllNodesTwice(20));
    ASSERT_EQ(large.Query(u, (u + 7) % 90).followees,
              large_naive.Query(u, (u + 7) % 90).followees);
  }
}

}  // namespace
}  // namespace mel::reach
