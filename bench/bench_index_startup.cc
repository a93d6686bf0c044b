// Startup-latency A/B for the MEL3 index tier: how long until a freshly
// started process can answer its first reachability query?
//
//   deserialize : TwoHopIndex::Load       — read + verify + copy every
//                 byte into owned heap arenas (the pre-mmap story).
//   mmap        : TwoHopIndex::LoadMapped — map the file, validate the
//                 header/table/offset arrays, bind spans. Load time is
//                 independent of arena size; payload pages fault in
//                 lazily on first query.
//
// Both warm (page cache hot) and cold (best-effort page-cache eviction
// via posix_fadvise(DONTNEED)) paths are measured, plus the first-query
// latency each load mode pays afterwards. Full mode asserts the mmap
// load is >= 10x faster than the deserializing load — the contract
// claimed in docs/PERFORMANCE.md. Results go to bench.startup.* gauges
// and the BENCH_startup.json trajectory sidecar checked by
// scripts/verify.sh.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "gen/social_graph_generator.h"
#include "reach/distance_label_index.h"
#include "reach/two_hop_index.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using mel::graph::NodeId;

// Best-effort page-cache eviction for `path`: sync dirty pages, then ask
// the kernel to drop the clean ones. Without root there is no guaranteed
// drop, so "cold" numbers are a floor on the real cold-start cost.
void EvictFromPageCache(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
#ifdef POSIX_FADV_DONTNEED
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
  ::close(fd);
}

struct LoadStats {
  double warm_ns = 0;  // min over repetitions, page cache hot
  double cold_ns = 0;  // min over repetitions, cache evicted first
  double first_query_ns = 0;
};

struct StartupResult {
  uint32_t users = 0;
  uint64_t file_bytes = 0;
  uint64_t index_bytes = 0;
  LoadStats deserialize;
  LoadStats mmap;
  double speedup_warm = 0;  // deserialize.warm_ns / mmap.warm_ns
};

// One measured load via `load()` (returns the loaded index so the first
// query can be timed against it). `reps` loads keep the minimum — load
// time has no steady state to average over, the floor is the signal.
template <typename LoadFn>
LoadStats MeasureLoads(const std::string& path, LoadFn load, int reps,
                       NodeId qu, NodeId qv) {
  LoadStats stats;
  stats.warm_ns = 1e18;
  stats.cold_ns = 1e18;
  // Warm-up: prime the page cache and any lazy allocator state.
  { auto index = load(); (void)index; }
  for (int r = 0; r < reps; ++r) {
    mel::WallTimer timer;
    auto index = load();
    stats.warm_ns =
        std::min(stats.warm_ns, static_cast<double>(timer.ElapsedNanos()));
    if (r == 0) {
      mel::WallTimer qt;
      double s = index.ScoreOnly(qu, qv);
      stats.first_query_ns = static_cast<double>(qt.ElapsedNanos());
      if (s < -1) std::printf("impossible %f", s);
    }
  }
  for (int r = 0; r < reps; ++r) {
    EvictFromPageCache(path);
    mel::WallTimer timer;
    auto index = load();
    stats.cold_ns =
        std::min(stats.cold_ns, static_cast<double>(timer.ElapsedNanos()));
    (void)index;
  }
  return stats;
}

StartupResult RunStartupAb(uint32_t users, int reps) {
  using namespace mel;
  gen::SocialGenOptions sopts;
  sopts.num_users = users;
  sopts.num_topics = 15;
  sopts.seed = 5;
  auto social = gen::GenerateSocialGraph(sopts);
  auto two_hop = reach::TwoHopIndex::Build(&social.graph, 5);

  const std::string path = "bench_index_startup.2hop.mel3";
  if (!two_hop.Save(path).ok()) {
    std::fprintf(stderr, "save failed\n");
    std::abort();
  }

  Rng rng(99);
  const NodeId qu = static_cast<NodeId>(rng.Uniform(users));
  const NodeId qv = static_cast<NodeId>(rng.Uniform(users));

  StartupResult result;
  result.users = users;
  result.index_bytes = two_hop.IndexSizeBytes();
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    result.file_bytes = static_cast<uint64_t>(f.tellg());
  }

  result.deserialize = MeasureLoads(
      path,
      [&] {
        auto loaded = reach::TwoHopIndex::Load(path, &social.graph);
        if (!loaded.ok()) {
          std::fprintf(stderr, "deserialize load failed: %s\n",
                       loaded.status().message().c_str());
          std::abort();
        }
        return std::move(loaded).value();
      },
      reps, qu, qv);

  result.mmap = MeasureLoads(
      path,
      [&] {
        auto loaded = reach::TwoHopIndex::LoadMapped(path, &social.graph);
        if (!loaded.ok()) {
          std::fprintf(stderr, "mmap load failed: %s\n",
                       loaded.status().message().c_str());
          std::abort();
        }
        return std::move(loaded).value();
      },
      reps, qu, qv);

  result.speedup_warm = result.deserialize.warm_ns / result.mmap.warm_ns;

  // The two load modes must answer identically — spot-check a query
  // sample before trusting the timing comparison.
  {
    auto a = reach::TwoHopIndex::Load(path, &social.graph);
    auto b = reach::TwoHopIndex::LoadMapped(path, &social.graph);
    Rng check_rng(7);
    for (int i = 0; i < 2000; ++i) {
      const NodeId u = static_cast<NodeId>(check_rng.Uniform(users));
      const NodeId v = static_cast<NodeId>(check_rng.Uniform(users));
      if (a.value().ScoreOnly(u, v) != b.value().ScoreOnly(u, v)) {
        std::fprintf(stderr, "load-mode mismatch at pair (%u, %u)\n", u, v);
        std::abort();
      }
    }
  }

  std::remove(path.c_str());

  std::printf(
      "\n=== Index startup (2-hop, %u users, %s file, %s arenas) ===\n",
      users, HumanBytes(result.file_bytes).c_str(),
      HumanBytes(result.index_bytes).c_str());
  std::printf("deserialize  : warm %s, cold %s, first query %s\n",
              HumanNanos(result.deserialize.warm_ns).c_str(),
              HumanNanos(result.deserialize.cold_ns).c_str(),
              HumanNanos(result.deserialize.first_query_ns).c_str());
  std::printf("mmap         : warm %s, cold %s, first query %s\n",
              HumanNanos(result.mmap.warm_ns).c_str(),
              HumanNanos(result.mmap.cold_ns).c_str(),
              HumanNanos(result.mmap.first_query_ns).c_str());
  std::printf("warm speedup : %.1fx (mmap vs deserialize)\n",
              result.speedup_warm);

  auto& reg = metrics::Registry();
  reg.GetGauge("bench.startup.file_bytes")
      ->Set(static_cast<int64_t>(result.file_bytes));
  reg.GetGauge("bench.startup.deserialize_warm_ns")
      ->Set(static_cast<int64_t>(result.deserialize.warm_ns));
  reg.GetGauge("bench.startup.deserialize_cold_ns")
      ->Set(static_cast<int64_t>(result.deserialize.cold_ns));
  reg.GetGauge("bench.startup.mmap_warm_ns")
      ->Set(static_cast<int64_t>(result.mmap.warm_ns));
  reg.GetGauge("bench.startup.mmap_cold_ns")
      ->Set(static_cast<int64_t>(result.mmap.cold_ns));
  reg.GetGauge("bench.startup.mmap_first_query_ns")
      ->Set(static_cast<int64_t>(result.mmap.first_query_ns));
  return result;
}

// DLI side dish: same A/B on the distance-label ablation, printed only
// (the asserted contract and the sidecar track the primary backend).
void RunDliStartup(uint32_t users, int reps) {
  using namespace mel;
  gen::SocialGenOptions sopts;
  sopts.num_users = users;
  sopts.num_topics = 15;
  sopts.seed = 5;
  auto social = gen::GenerateSocialGraph(sopts);
  auto dli = reach::DistanceLabelIndex::Build(&social.graph, 5);
  const std::string path = "bench_index_startup.dli.mel3";
  if (!dli.Save(path).ok()) {
    std::fprintf(stderr, "dli save failed\n");
    std::abort();
  }
  Rng rng(99);
  const NodeId qu = static_cast<NodeId>(rng.Uniform(users));
  const NodeId qv = static_cast<NodeId>(rng.Uniform(users));
  auto deser = MeasureLoads(
      path,
      [&] {
        return std::move(
                   reach::DistanceLabelIndex::Load(path, &social.graph))
            .value();
      },
      reps, qu, qv);
  auto mapped = MeasureLoads(
      path,
      [&] {
        return std::move(reach::DistanceLabelIndex::LoadMapped(
                             path, &social.graph))
            .value();
      },
      reps, qu, qv);
  std::remove(path.c_str());
  std::printf(
      "dist-label   : deserialize warm %s -> mmap warm %s (%.1fx)\n",
      HumanNanos(deser.warm_ns).c_str(), HumanNanos(mapped.warm_ns).c_str(),
      deser.warm_ns / mapped.warm_ns);
}

// Per-PR trajectory sidecar (schema v1; keys checked by verify.sh).
void WriteStartupSidecar(const StartupResult& r, bool smoke) {
  std::ofstream sidecar("BENCH_startup.json");
  mel::JsonWriter w(&sidecar);
  w.BeginObject();
  w.KeyValue("bench", std::string_view("startup"));
  w.KeyValue("schema_version", uint64_t{1});
  w.KeyValue("mode", std::string_view(smoke ? "smoke" : "full"));
  w.KeyValue("users", uint64_t{r.users});
  w.KeyValue("file_bytes", r.file_bytes);
  w.KeyValue("index_bytes", r.index_bytes);
  w.KeyValue("deserialize_warm_ns", r.deserialize.warm_ns);
  w.KeyValue("deserialize_cold_ns", r.deserialize.cold_ns);
  w.KeyValue("deserialize_first_query_ns", r.deserialize.first_query_ns);
  w.KeyValue("mmap_warm_ns", r.mmap.warm_ns);
  w.KeyValue("mmap_cold_ns", r.mmap.cold_ns);
  w.KeyValue("mmap_first_query_ns", r.mmap.first_query_ns);
  w.KeyValue("warm_speedup", r.speedup_warm);
  w.EndObject();
  sidecar << "\n";
  std::printf("trajectory written to BENCH_startup.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 1;
    }
  }

  const uint32_t users = smoke ? 800 : 4000;
  const int reps = smoke ? 3 : 7;
  const auto result = RunStartupAb(users, reps);
  if (!smoke) RunDliStartup(users, reps);
  WriteStartupSidecar(result, smoke);

  if (!smoke && result.speedup_warm < 10.0) {
    std::fprintf(stderr,
                 "FAIL: mmap warm load only %.1fx faster than "
                 "deserializing load (contract: >= 10x)\n",
                 result.speedup_warm);
    return 1;
  }

  const char* metrics_path = "bench_index_startup.metrics.json";
  if (mel::metrics::WriteJsonFile(metrics_path).ok()) {
    std::printf("metrics JSON written to %s\n", metrics_path);
  }
  return 0;
}
