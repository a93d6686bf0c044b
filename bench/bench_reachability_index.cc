// Reproduces Table 5: extended transitive closure vs extended 2-hop cover
// for weighted reachability queries on social graphs of growing size —
// graph statistics, indexing time, index size, and average query time
// over a random query workload. The TC columns are dropped beyond the
// size where its quadratic memory stops being sensible, exactly as the
// paper omits TC for its two largest graphs.
//
// Extras beyond the paper's table: builds run on a shared thread pool
// (--threads N, default hardware concurrency) with a serial-vs-parallel
// scaling section. Query time is the count-only ScoreOnly path the
// linker's S_in uses (Eq. 4).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <vector>

#include "gen/social_graph_generator.h"
#include "graph/stats.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

struct QueryWorkload {
  std::vector<mel::graph::NodeId> sources;
  std::vector<mel::graph::NodeId> targets;
};

QueryWorkload MakeWorkload(uint32_t num_nodes, size_t count,
                           uint64_t seed) {
  mel::Rng rng(seed);
  QueryWorkload w;
  w.sources.reserve(count);
  w.targets.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    w.sources.push_back(
        static_cast<mel::graph::NodeId>(rng.Uniform(num_nodes)));
    w.targets.push_back(
        static_cast<mel::graph::NodeId>(rng.Uniform(num_nodes)));
  }
  return w;
}

double MeasureQueryNanos(const mel::reach::WeightedReachability& index,
                         const QueryWorkload& w) {
  mel::WallTimer timer;
  double sink = 0;
  for (size_t i = 0; i < w.sources.size(); ++i) {
    sink += index.ScoreOnly(w.sources[i], w.targets[i]);
  }
  double nanos = static_cast<double>(timer.ElapsedNanos());
  // Keep the computation alive.
  if (sink < -1) std::printf("impossible %f", sink);
  return nanos / w.sources.size();
}

struct ScorePathResult {
  uint32_t users = 0;
  size_t queries = 0;
  double score_only_ns = 0;
  uint64_t arena_bytes = 0;
};

// Count-only path on the 2-hop cover: ScoreOnly query latency plus the
// arena index bytes. Results go to bench.reach.* gauges in the metrics
// sidecar and, via the returned struct, to the BENCH_reach.json
// trajectory sidecar; scripts/verify.sh runs this section alone via
// --smoke.
ScorePathResult RunScorePath(uint32_t users, size_t queries,
                             mel::util::ThreadPool* pool) {
  using namespace mel;
  gen::SocialGenOptions sopts;
  sopts.num_users = users;
  sopts.num_topics = 15;
  sopts.seed = 5;
  auto social = gen::GenerateSocialGraph(sopts);
  auto two_hop = reach::TwoHopIndex::Build(&social.graph, 5, pool);
  auto workload = MakeWorkload(users, queries, 99);

  // Warm-up pass so all measurements see hot caches and sized
  // thread-local scratch.
  MeasureQueryNanos(two_hop, workload);
  const double score_only_ns = MeasureQueryNanos(two_hop, workload);
  const uint64_t arena_bytes = two_hop.IndexSizeBytes();

  std::printf(
      "\n=== Count-only path (2-hop, %u users, %zu queries) ===\n", users,
      queries);
  std::printf("index bytes    : %s\n", HumanBytes(arena_bytes).c_str());
  std::printf("ScoreOnly      : %s\n", HumanNanos(score_only_ns).c_str());

  auto& reg = metrics::Registry();
  reg.GetGauge("bench.reach.score_only_ns")
      ->Set(static_cast<int64_t>(score_only_ns));
  reg.GetGauge("bench.reach.arena_index_bytes")
      ->Set(static_cast<int64_t>(arena_bytes));

  ScorePathResult result;
  result.users = users;
  result.queries = queries;
  result.score_only_ns = score_only_ns;
  result.arena_bytes = arena_bytes;
  return result;
}

// Trajectory sidecar (schema v3; keys checked by verify.sh).
void WriteReachSidecar(const ScorePathResult& path, bool smoke) {
  std::ofstream sidecar("BENCH_reach.json");
  mel::JsonWriter w(&sidecar);
  w.BeginObject();
  w.KeyValue("bench", std::string_view("reach"));
  w.KeyValue("schema_version", uint64_t{3});
  w.KeyValue("mode", std::string_view(smoke ? "smoke" : "full"));
  w.KeyValue("users", uint64_t{path.users});
  w.KeyValue("queries", uint64_t{path.queries});
  w.KeyValue("score_only_ns", path.score_only_ns);
  w.KeyValue("arena_index_bytes", path.arena_bytes);
  w.EndObject();
  sidecar << "\n";
  std::printf("trajectory written to BENCH_reach.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mel;
  uint32_t threads = 0;  // 0 = hardware concurrency
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--threads N] [--smoke]\n", argv[0]);
      return 1;
    }
  }
  util::ThreadPool pool(threads);
  util::ThreadPool serial_pool(1);

  const char* metrics_path = "bench_reachability_index.metrics.json";
  if (smoke) {
    // CI-sized run: just the count-only path, small graph.
    const auto path = RunScorePath(/*users=*/800, /*queries=*/40000, &pool);
    WriteReachSidecar(path, /*smoke=*/true);
    if (mel::metrics::WriteJsonFile(metrics_path).ok()) {
      std::printf("metrics JSON written to %s\n", metrics_path);
    }
    return 0;
  }

  std::printf(
      "=== Table 5: extended transitive closure vs extended 2-hop ===\n");
  std::printf("index builds use %u threads (--threads)\n\n",
              pool.num_threads());
  std::printf("%-8s | %8s %8s %7s %7s | %10s %9s %9s | %10s %9s %9s\n",
              "dataset", "#node", "#edge", "avgdeg", "maxdeg",
              "TC-build", "TC-size", "TC-query",
              "2hop-build", "2hop-size", "2hop-qry");

  constexpr size_t kQueries = 200000;
  // TC needs 5 bytes per node pair and the 2-hop build is ~quadratic on
  // small-world graphs, so the ladder is scaled to keep the whole run in
  // minutes; the paper's ladder covers 4.6K..11.3M nodes with the same
  // relative spacing.
  constexpr uint32_t kTcLimit = 4000;
  struct Config {
    const char* name;
    uint32_t users;
  };
  const Config configs[] = {{"D90", 500},  {"D70", 1000}, {"D50", 1500},
                            {"D30", 2500}, {"D10", 4000}, {"D", 6000},
                            {"Twitter", 8000}};
  for (const Config& config : configs) {
    gen::SocialGenOptions sopts;
    sopts.num_users = config.users;
    sopts.num_topics = 15;
    sopts.seed = 5;
    auto social = gen::GenerateSocialGraph(sopts);
    auto stats = graph::ComputeStats(social.graph);
    auto workload = MakeWorkload(config.users, kQueries, 99);

    char tc_build[24] = "-", tc_size[24] = "-", tc_query[24] = "-";
    if (config.users <= kTcLimit) {
      WallTimer timer;
      auto tc = reach::TransitiveClosureIndex::Build(
          &social.graph, 5,
          reach::TransitiveClosureIndex::Construction::kIncremental,
          &pool);
      std::snprintf(tc_build, sizeof(tc_build), "%s",
                    HumanNanos(timer.ElapsedNanos()).c_str());
      std::snprintf(tc_size, sizeof(tc_size), "%s",
                    HumanBytes(tc.IndexSizeBytes()).c_str());
      std::snprintf(tc_query, sizeof(tc_query), "%s",
                    HumanNanos(MeasureQueryNanos(tc, workload)).c_str());
    }

    WallTimer timer;
    auto two_hop = reach::TwoHopIndex::Build(&social.graph, 5, &pool);
    double hop_build = static_cast<double>(timer.ElapsedNanos());
    double hop_query = MeasureQueryNanos(two_hop, workload);

    std::printf(
        "%-8s | %8u %8llu %7.1f %7u | %10s %9s %9s | %10s %9s %9s\n",
        config.name, stats.num_nodes,
        static_cast<unsigned long long>(stats.num_edges),
        stats.avg_out_degree,
        std::max(stats.max_out_degree, stats.max_in_degree), tc_build,
        tc_size, tc_query, HumanNanos(hop_build).c_str(),
        HumanBytes(two_hop.IndexSizeBytes()).c_str(),
        HumanNanos(hop_query).c_str());
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper shape check (Table 5): TC answers queries faster but costs "
      "quadratic memory and longer builds; the 2-hop cover shrinks the "
      "index by an order of magnitude, stays query-efficient, and is the "
      "only option for the largest graphs (TC rows '-').\n");

  // --- Build thread scaling: serial vs parallel on one mid-size graph.
  {
    gen::SocialGenOptions sopts;
    sopts.num_users = 2500;
    sopts.num_topics = 15;
    sopts.seed = 5;
    auto social = gen::GenerateSocialGraph(sopts);

    WallTimer tc_serial_timer;
    auto tc_serial = reach::TransitiveClosureIndex::Build(
        &social.graph, 5,
        reach::TransitiveClosureIndex::Construction::kIncremental,
        &serial_pool);
    double tc_serial_ms = tc_serial_timer.ElapsedMillis();
    WallTimer tc_par_timer;
    auto tc_par = reach::TransitiveClosureIndex::Build(
        &social.graph, 5,
        reach::TransitiveClosureIndex::Construction::kIncremental, &pool);
    double tc_par_ms = tc_par_timer.ElapsedMillis();

    WallTimer hop_serial_timer;
    auto hop_serial =
        reach::TwoHopIndex::Build(&social.graph, 5, &serial_pool);
    double hop_serial_ms = hop_serial_timer.ElapsedMillis();
    WallTimer hop_par_timer;
    auto hop_par = reach::TwoHopIndex::Build(&social.graph, 5, &pool);
    double hop_par_ms = hop_par_timer.ElapsedMillis();

    std::printf(
        "\n=== Build thread scaling (2500 users, 1 vs %u threads) ===\n",
        pool.num_threads());
    std::printf("TC incremental : %s -> %s  (%.1fx)\n",
                HumanNanos(tc_serial_ms * 1e6).c_str(),
                HumanNanos(tc_par_ms * 1e6).c_str(),
                tc_serial_ms / tc_par_ms);
    std::printf("2-hop cover    : %s -> %s  (%.1fx)\n",
                HumanNanos(hop_serial_ms * 1e6).c_str(),
                HumanNanos(hop_par_ms * 1e6).c_str(),
                hop_serial_ms / hop_par_ms);
  }

  const auto path = RunScorePath(/*users=*/4000, /*queries=*/kQueries, &pool);
  WriteReachSidecar(path, /*smoke=*/false);

  if (mel::metrics::WriteJsonFile(metrics_path).ok()) {
    std::printf("metrics JSON written to %s\n", metrics_path);
  }
  return 0;
}
