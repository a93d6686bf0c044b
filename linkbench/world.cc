#include "world.h"

#include <algorithm>
#include <cmath>

#include "gen/tweet_generator.h"
#include "util/random.h"

namespace linkbench {

using namespace mel;

namespace {

// DeriveSeed stream ids; 0..2 are taken by gen::WithMasterSeed.
constexpr uint64_t kComplementStream = 3;
constexpr uint64_t kTweetStream = 4;
constexpr uint64_t kDeltaStream = 5;

// Rejection-samples a node with probability proportional to degree(x).
template <typename DegreeFn>
graph::NodeId SampleByDegree(uint32_t n, DegreeFn degree, Rng* rng) {
  uint32_t max_degree = 0;
  for (graph::NodeId x = 0; x < n; ++x) {
    max_degree = std::max(max_degree, degree(x));
  }
  while (true) {
    const auto x = static_cast<graph::NodeId>(rng->Uniform(n));
    if (rng->Uniform(max_degree) < degree(x)) return x;
  }
}

}  // namespace

core::LinkerOptions BenchLinkerOptions() {
  core::LinkerOptions options;
  options.theta1 = 10;
  return options;
}

std::unique_ptr<World> BuildWorld() {
  gen::WorldOptions options;
  options.kb.num_entities = static_cast<uint32_t>(500 * kScale);
  options.kb.num_topics = static_cast<uint32_t>(15 * std::sqrt(kScale));
  options.kb.num_ambiguous_surfaces = static_cast<uint32_t>(150 * kScale);
  options.social.num_users = static_cast<uint32_t>(800 * kScale);
  options.tweets.num_tweets = static_cast<uint32_t>(9000 * kScale);

  auto world = std::make_unique<World>();
  world->gen = gen::GenerateWorld(gen::WithMasterSeed(options, kWorldSeed));
  world->ckb =
      std::make_unique<kb::ComplementedKnowledgebase>(&world->gen.kb());
  gen::ComplementWithSimulatedLinker(
      world->gen, gen::FilterActiveUsers(world->gen.corpus, 10),
      /*base_noise=*/1.0, /*max_noise=*/0.6,
      DeriveSeed(kWorldSeed, kComplementStream), world->ckb.get());
  world->graph = world->gen.social.graph;
  world->reach = std::make_unique<reach::TwoHopIndex>(
      reach::TwoHopIndex::Build(&world->graph, kMaxHops));
  world->network = std::make_unique<recency::PropagationNetwork>(
      recency::PropagationNetwork::Build(world->gen.kb(), /*theta2=*/0.75));
  world->linker = std::make_unique<core::EntityLinker>(
      &world->gen.kb(), world->ckb.get(), world->reach.get(),
      world->network.get(), BenchLinkerOptions());
  world->linker->WarmUp();
  return world;
}

Reference MakeReference(const World& world,
                        const kb::ComplementedKnowledgebase& snapshot) {
  Reference ref;
  ref.ckb = std::make_unique<kb::ComplementedKnowledgebase>(snapshot);
  ref.linker = std::make_unique<core::EntityLinker>(
      &world.gen.kb(), ref.ckb.get(), world.reach.get(),
      world.network.get(), BenchLinkerOptions());
  ref.linker->WarmUp();
  return ref;
}

std::vector<StreamMention> MakeStream(const World& world, uint64_t seed,
                                      size_t count, double typo_prob) {
  gen::TweetGenOptions options;
  options.typo_prob = typo_prob;
  options.seed = DeriveSeed(seed, kTweetStream);
  // ~1.3 mentions per tweet; regenerate larger in the rare short case.
  options.num_tweets = static_cast<uint32_t>(count / 1.2) + 64;
  std::vector<StreamMention> stream;
  while (stream.size() < count) {
    stream.clear();
    const gen::Corpus corpus = gen::GenerateTweets(
        world.gen.kb_world, world.gen.social, options);
    for (const gen::LabeledTweet& lt : corpus.tweets) {
      for (const gen::LabeledMention& m : lt.mentions) {
        stream.push_back(
            StreamMention{m.surface, lt.tweet.user, lt.tweet.time, m.truth});
      }
    }
    options.num_tweets += options.num_tweets / 2;
  }
  stream.resize(count);
  return stream;
}

std::vector<graph::EdgeDelta> MakeDeltas(
    const graph::DirectedGraph& graph, uint64_t seed,
    const std::vector<graph::EdgeDelta::Op>& ops) {
  graph::DirectedGraph g = graph;
  const uint32_t n = g.num_nodes();
  Rng rng(DeriveSeed(seed, kDeltaStream));
  std::vector<graph::EdgeDelta> deltas;
  deltas.reserve(ops.size());
  for (const graph::EdgeDelta::Op op : ops) {
    graph::EdgeDelta d;
    d.op = op;
    if (op == graph::EdgeDelta::Op::kErase) {
      d.u = SampleByDegree(
          n, [&](graph::NodeId x) { return g.OutDegree(x); }, &rng);
      const auto outs = g.OutNeighbors(d.u);
      d.v = outs[rng.Uniform(outs.size())];
      g.EraseEdge(d.u, d.v);
    } else {
      do {
        d.u = static_cast<graph::NodeId>(rng.Uniform(n));
        d.v = SampleByDegree(
            n, [&](graph::NodeId x) { return g.InDegree(x); }, &rng);
      } while (d.u == d.v || g.HasEdge(d.u, d.v));
      g.InsertEdge(d.u, d.v);
    }
    deltas.push_back(d);
  }
  return deltas;
}

}  // namespace linkbench
