#ifndef LINKBENCH_WORLD_H_
#define LINKBENCH_WORLD_H_

// The seeded world every workload serves from, and the inputs a client
// sends to it. Everything here is a pure function of the seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/entity_linker.h"
#include "gen/workload.h"
#include "graph/directed_graph.h"
#include "graph/mutation.h"
#include "kb/complemented_kb.h"
#include "reach/two_hop_index.h"
#include "recency/propagation_network.h"

namespace linkbench {

/// World size: scale 2 of the calibrated synthetic Twitter stand-in
/// (1000 entities, 1600 users, 18000 complementation tweets).
inline constexpr double kScale = 2.0;
/// Hop bound H of the 2-hop reachability index.
inline constexpr uint32_t kMaxHops = 5;
/// Seed of the served world. It is fixed so that runs with different
/// --seed values serve the same deployed state and differ only in the
/// traffic the client sends (stream, feedback and deltas come from
/// --seed).
inline constexpr uint64_t kWorldSeed = 1;

/// The serving state: generated KB, social graph and corpus, the
/// complemented KB, the 2-hop index and propagation network, and the
/// linker wired over them. Heap-allocated and pinned: the linker and
/// index keep pointers into it.
struct World {
  mel::gen::World gen;
  std::unique_ptr<mel::kb::ComplementedKnowledgebase> ckb;
  /// The linker's own copy of the follow graph; follow_churn mutates it
  /// through reach::ReachMaintainer while gen.social.graph stays intact.
  mel::graph::DirectedGraph graph;
  std::unique_ptr<mel::reach::TwoHopIndex> reach;
  std::unique_ptr<mel::recency::PropagationNetwork> network;
  std::unique_ptr<mel::core::EntityLinker> linker;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
};

mel::core::LinkerOptions BenchLinkerOptions();

/// Generation, complementation, 2-hop and network builds, and WarmUp of
/// the world of kWorldSeed: the work setup_s times.
std::unique_ptr<World> BuildWorld();

/// A second linker over the world's KB, index and network, but with a
/// private copy of a complemented-KB snapshot: the sequential replay the
/// served responses are checked against.
struct Reference {
  std::unique_ptr<mel::kb::ComplementedKnowledgebase> ckb;
  std::unique_ptr<mel::core::EntityLinker> linker;
};
Reference MakeReference(const World& world,
                        const mel::kb::ComplementedKnowledgebase& snapshot);

/// One mention of a client tweet, with the generator's ground truth.
struct StreamMention {
  std::string surface;
  mel::kb::UserId user = mel::kb::kInvalidUser;
  mel::kb::Timestamp time = 0;  // the tweet's own time
  mel::kb::EntityId truth = mel::kb::kInvalidEntity;
};

/// `count` mentions of freshly generated tweets in time order. Each
/// surface gets one seeded character edit with probability `typo_prob`.
std::vector<StreamMention> MakeStream(const World& world, uint64_t seed,
                                      size_t count, double typo_prob);

/// Follow-graph deltas with the given ops that each apply in sequence on
/// `graph`: an unfollow erases an existing edge, a follow inserts a
/// non-edge whose target is drawn proportionally to in-degree.
std::vector<mel::graph::EdgeDelta> MakeDeltas(
    const mel::graph::DirectedGraph& graph, uint64_t seed,
    const std::vector<mel::graph::EdgeDelta::Op>& ops);

}  // namespace linkbench

#endif  // LINKBENCH_WORLD_H_
