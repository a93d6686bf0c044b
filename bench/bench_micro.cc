// Google-benchmark microbenchmarks of the hot online-inference paths:
// weighted reachability queries per backend, candidate generation (exact
// and fuzzy), influence ranking, recency scoring, and end-to-end mention
// linking.
//
// BM_LinkMention vs BM_LinkMentionNoMetrics quantifies the observability
// overhead (the acceptance budget is 5%); on exit the accumulated
// registry is exported to bench_micro.metrics.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "eval/harness.h"
#include "reach/distance_label_index.h"
#include "reach/naive_reachability.h"
#include "reach/pruned_online_search.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "recency/burst_tracker.h"
#include "social/influence.h"
#include "util/metrics.h"
#include "util/random.h"

namespace {

using namespace mel;

// One lazily constructed shared world for every microbenchmark.
eval::Harness& SharedHarness() {
  static eval::Harness* harness = [] {
    eval::HarnessOptions options;
    options.scale = 1.0;
    return new eval::Harness(options);
  }();
  return *harness;
}

void BM_ReachabilityNaive(benchmark::State& state) {
  auto& harness = SharedHarness();
  const auto& g = harness.world().social.graph;
  reach::NaiveReachability naive(&g, 5);
  Rng rng(1);
  for (auto _ : state) {
    auto u = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    auto v = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    benchmark::DoNotOptimize(naive.ScoreOnly(u, v));
  }
}
BENCHMARK(BM_ReachabilityNaive);

void BM_ReachabilityTransitiveClosure(benchmark::State& state) {
  auto& harness = SharedHarness();
  const auto& g = harness.world().social.graph;
  static auto tc = reach::TransitiveClosureIndex::Build(
      &g, 5, reach::TransitiveClosureIndex::Construction::kIncremental);
  Rng rng(1);
  for (auto _ : state) {
    auto u = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    auto v = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    benchmark::DoNotOptimize(tc.ScoreOnly(u, v));
  }
}
BENCHMARK(BM_ReachabilityTransitiveClosure);

void BM_ReachabilityTwoHop(benchmark::State& state) {
  auto& harness = SharedHarness();
  const auto& g = harness.world().social.graph;
  const auto& index = harness.reachability();
  Rng rng(1);
  for (auto _ : state) {
    auto u = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    auto v = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    benchmark::DoNotOptimize(index.ScoreOnly(u, v));
  }
}
BENCHMARK(BM_ReachabilityTwoHop);

void BM_ReachabilityDistanceOnly(benchmark::State& state) {
  auto& harness = SharedHarness();
  const auto& g = harness.world().social.graph;
  static auto index = reach::DistanceLabelIndex::Build(&g, 5);
  Rng rng(1);
  for (auto _ : state) {
    auto u = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    auto v = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    benchmark::DoNotOptimize(index.ScoreOnly(u, v));
  }
}
BENCHMARK(BM_ReachabilityDistanceOnly);

void BM_ReachabilityPrunedOnline(benchmark::State& state) {
  auto& harness = SharedHarness();
  const auto& g = harness.world().social.graph;
  static auto index = reach::PrunedOnlineSearch::Build(&g, 5, 3, 1);
  Rng rng(1);
  for (auto _ : state) {
    auto u = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    auto v = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
    benchmark::DoNotOptimize(index.ScoreOnly(u, v));
  }
}
BENCHMARK(BM_ReachabilityPrunedOnline);

void BM_BurstTrackerObserve(benchmark::State& state) {
  recency::BurstTracker tracker(1000, 3 * kb::kSecondsPerDay, 16, 10);
  Rng rng(2);
  kb::Timestamp t = 0;
  for (auto _ : state) {
    t += static_cast<kb::Timestamp>(rng.Uniform(120));
    tracker.Observe(static_cast<kb::EntityId>(rng.Uniform(1000)), t);
  }
  benchmark::DoNotOptimize(tracker.ApproxRecentCount(0, t));
}
BENCHMARK(BM_BurstTrackerObserve);

void BM_RecencyWindowQuery(benchmark::State& state) {
  auto& harness = SharedHarness();
  recency::SlidingWindowRecency window(&harness.ckb(),
                                       3 * kb::kSecondsPerDay, 10);
  Rng rng(3);
  const kb::Timestamp now = 90 * kb::kSecondsPerDay;
  const uint32_t n = harness.kb().num_entities();
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.RecentCount(
        static_cast<kb::EntityId>(rng.Uniform(n)), now));
  }
}
BENCHMARK(BM_RecencyWindowQuery);

void BM_CandidateGenerationExact(benchmark::State& state) {
  auto& harness = SharedHarness();
  core::CandidateGenerator gen(&harness.kb(), 1);
  const auto& surfaces = harness.world().kb_world.ambiguous_surfaces;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gen.Generate(surfaces[rng.Uniform(surfaces.size())]));
  }
}
BENCHMARK(BM_CandidateGenerationExact);

void BM_CandidateGenerationFuzzy(benchmark::State& state) {
  auto& harness = SharedHarness();
  core::CandidateGenerator gen(&harness.kb(), 1);
  const auto& surfaces = harness.world().kb_world.ambiguous_surfaces;
  Rng rng(3);
  for (auto _ : state) {
    // Misspell one character to force the fuzzy path.
    std::string surface = surfaces[rng.Uniform(surfaces.size())];
    surface[rng.Uniform(surface.size())] = '0';
    benchmark::DoNotOptimize(gen.Generate(surface));
  }
}
BENCHMARK(BM_CandidateGenerationFuzzy);

void BM_InfluenceTopK(benchmark::State& state) {
  auto& harness = SharedHarness();
  social::InfluenceEstimator influence(&harness.ckb(),
                                       social::InfluenceMethod::kEntropy);
  const auto& kb_world = harness.world().kb_world;
  Rng rng(4);
  for (auto _ : state) {
    size_t sid = rng.Uniform(kb_world.surface_entities.size());
    const auto& candidates = kb_world.surface_entities[sid];
    benchmark::DoNotOptimize(influence.TopInfluential(
        candidates[0], candidates, static_cast<uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_InfluenceTopK)->Arg(1)->Arg(5)->Arg(20);

// The same surfaces ranked in one TopInfluentialAll call per candidate set
// (every candidate's list, where BM_InfluenceTopK ranks the first only).
void BM_InfluenceTopKAll(benchmark::State& state) {
  auto& harness = SharedHarness();
  social::InfluenceEstimator influence(&harness.ckb(),
                                       social::InfluenceMethod::kEntropy);
  const auto& kb_world = harness.world().kb_world;
  Rng rng(4);
  for (auto _ : state) {
    size_t sid = rng.Uniform(kb_world.surface_entities.size());
    const auto& candidates = kb_world.surface_entities[sid];
    benchmark::DoNotOptimize(influence.TopInfluentialAll(
        candidates, static_cast<uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_InfluenceTopKAll)->Arg(1)->Arg(5)->Arg(20);

void BM_LinkMention(benchmark::State& state) {
  auto& harness = SharedHarness();
  auto linker = harness.MakeLinker(harness.DefaultLinkerOptions());
  const auto& corpus = harness.world().corpus;
  const auto& split = harness.test_split();
  Rng rng(5);
  for (auto _ : state) {
    const auto& lt =
        corpus.tweets[split.tweet_indices[rng.Uniform(
            split.tweet_indices.size())]];
    const auto& m = lt.mentions[rng.Uniform(lt.mentions.size())];
    benchmark::DoNotOptimize(
        linker.LinkMention(m.surface, lt.tweet.user, lt.tweet.time));
  }
}
BENCHMARK(BM_LinkMention);

// Identical workload with the observability layer disabled — the pair
// bounds the instrumentation overhead of EntityLinker::LinkMention.
void BM_LinkMentionNoMetrics(benchmark::State& state) {
  auto& harness = SharedHarness();
  auto linker = harness.MakeLinker(harness.DefaultLinkerOptions());
  const auto& corpus = harness.world().corpus;
  const auto& split = harness.test_split();
  Rng rng(5);
  metrics::SetEnabled(false);
  for (auto _ : state) {
    const auto& lt =
        corpus.tweets[split.tweet_indices[rng.Uniform(
            split.tweet_indices.size())]];
    const auto& m = lt.mentions[rng.Uniform(lt.mentions.size())];
    benchmark::DoNotOptimize(
        linker.LinkMention(m.surface, lt.tweet.user, lt.tweet.time));
  }
  metrics::SetEnabled(true);
}
BENCHMARK(BM_LinkMentionNoMetrics);

// Cache A/B of the recency memoization on the same workload as
// BM_LinkMention: together with BM_LinkMention (cache on by default) the
// pair shows the speedup; with BM_LinkMentionNoMetrics the overhead.
void BM_LinkMentionRecencyCacheOff(benchmark::State& state) {
  auto& harness = SharedHarness();
  auto options = harness.DefaultLinkerOptions();
  options.propagator.enable_cache = false;
  auto linker = harness.MakeLinker(options);
  const auto& corpus = harness.world().corpus;
  const auto& split = harness.test_split();
  Rng rng(5);
  for (auto _ : state) {
    const auto& lt =
        corpus.tweets[split.tweet_indices[rng.Uniform(
            split.tweet_indices.size())]];
    const auto& m = lt.mentions[rng.Uniform(lt.mentions.size())];
    benchmark::DoNotOptimize(
        linker.LinkMention(m.surface, lt.tweet.user, lt.tweet.time));
  }
}
BENCHMARK(BM_LinkMentionRecencyCacheOff);

// The isolated propagation stage: CandidateScores with the memoization
// off (Arg 0) and on (Arg 1) at a fixed query time — the steady state of
// a query burst, where every cached run after the first is a hit.
void BM_RecencyCandidateScores(benchmark::State& state) {
  auto& harness = SharedHarness();
  recency::PropagatorOptions popts;
  popts.enable_cache = state.range(0) != 0;
  recency::SlidingWindowRecency window(&harness.ckb(),
                                       3 * kb::kSecondsPerDay, 10);
  recency::RecencyPropagator propagator(&harness.network(), &window, popts);
  const auto& kb_world = harness.world().kb_world;
  const kb::Timestamp now = 90 * kb::kSecondsPerDay;
  Rng rng(7);
  for (auto _ : state) {
    size_t sid = rng.Uniform(kb_world.surface_entities.size());
    const auto& candidates = kb_world.surface_entities[sid];
    benchmark::DoNotOptimize(
        propagator.CandidateScores(candidates, now, true));
  }
}
BENCHMARK(BM_RecencyCandidateScores)->Arg(0)->Arg(1);

void BM_LinkTweet(benchmark::State& state) {
  auto& harness = SharedHarness();
  auto linker = harness.MakeLinker(harness.DefaultLinkerOptions());
  const auto& corpus = harness.world().corpus;
  const auto& split = harness.test_split();
  Rng rng(6);
  for (auto _ : state) {
    const auto& lt =
        corpus.tweets[split.tweet_indices[rng.Uniform(
            split.tweet_indices.size())]];
    benchmark::DoNotOptimize(linker.LinkTweet(lt.tweet));
  }
}
BENCHMARK(BM_LinkTweet);

}  // namespace

// BENCHMARK_MAIN plus a metrics sidecar: everything the benchmarks drove
// through the pipeline is exported for offline inspection.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* metrics_path = "bench_micro.metrics.json";
  if (mel::metrics::WriteJsonFile(metrics_path).ok()) {
    std::printf("metrics JSON written to %s\n", metrics_path);
  }
  return 0;
}
