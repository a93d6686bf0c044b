// Design-choice ablation (DESIGN.md Sec. 5): should the 2-hop labels STORE
// followee sets (the paper's Algorithm 2) or store distances only and
// reconstruct F_uv through Theorem 1 at query time? Compares build time,
// index size, and query latency of the two label layouts plus the
// transitive closure for reference.

#include <cstdio>

#include "gen/social_graph_generator.h"
#include "reach/distance_label_index.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

double MeasureQueryNanos(const mel::reach::WeightedReachability& index,
                         uint32_t num_nodes, size_t queries) {
  mel::Rng rng(99);
  mel::WallTimer timer;
  double sink = 0;
  for (size_t i = 0; i < queries; ++i) {
    sink += index.ScoreOnly(
        static_cast<mel::graph::NodeId>(rng.Uniform(num_nodes)),
        static_cast<mel::graph::NodeId>(rng.Uniform(num_nodes)));
  }
  if (sink < -1) std::printf("impossible\n");
  return static_cast<double>(timer.ElapsedNanos()) / queries;
}

}  // namespace

int main() {
  using namespace mel;
  std::printf(
      "=== ablation: followee sets stored in labels vs reconstructed ===\n");
  std::printf("%-8s | %-18s %12s %10s %10s\n", "users", "index", "build",
              "size", "query");

  for (uint32_t users : {1000u, 2000u, 4000u}) {
    gen::SocialGenOptions sopts;
    sopts.num_users = users;
    sopts.num_topics = 15;
    sopts.seed = 5;
    auto social = gen::GenerateSocialGraph(sopts);
    constexpr size_t kQueries = 50000;

    {
      WallTimer timer;
      auto index = reach::TwoHopIndex::Build(&social.graph, 5);
      double build = static_cast<double>(timer.ElapsedNanos());
      std::printf("%-8u | %-18s %12s %10s %10s\n", users,
                  "2hop+followees", HumanNanos(build).c_str(),
                  HumanBytes(index.IndexSizeBytes()).c_str(),
                  HumanNanos(MeasureQueryNanos(index, users, kQueries))
                      .c_str());
    }
    {
      WallTimer timer;
      auto index = reach::DistanceLabelIndex::Build(&social.graph, 5);
      double build = static_cast<double>(timer.ElapsedNanos());
      std::printf("%-8u | %-18s %12s %10s %10s\n", users,
                  "2hop dist-only", HumanNanos(build).c_str(),
                  HumanBytes(index.IndexSizeBytes()).c_str(),
                  HumanNanos(MeasureQueryNanos(index, users, kQueries))
                      .c_str());
    }
    {
      WallTimer timer;
      auto index = reach::TransitiveClosureIndex::Build(
          &social.graph, 5,
          reach::TransitiveClosureIndex::Construction::kIncremental);
      double build = static_cast<double>(timer.ElapsedNanos());
      std::printf("%-8u | %-18s %12s %10s %10s\n", users,
                  "transitive closure", HumanNanos(build).c_str(),
                  HumanBytes(index.IndexSizeBytes()).c_str(),
                  HumanNanos(MeasureQueryNanos(index, users, kQueries))
                      .c_str());
    }
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: the distance-only labels build faster and are "
      "smaller, but each weighted query pays outdeg(u) extra label "
      "intersections to reconstruct the followee set — the trade the "
      "paper's Algorithm 2 makes in the other direction.\n");
  return 0;
}
