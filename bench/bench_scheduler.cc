// Scheduler scaling check: the chunk-pull ParallelFor at 1 thread vs the
// pool's full width, on three workloads:
//
//   1. uniform synthetic — equal-cost items at grain 64, the regime the
//      shared cursor handles best. Its scaling floor (>= 1.2x on the
//      median, full mode on >= 4 hardware threads) is asserted: a pool
//      that cannot speed up embarrassingly parallel work is broken.
//   2. skewed synthetic — per-item cost follows a shuffled power law
//      (a few hub-sized items, a long light tail), executed at grain 1,
//      as the paper's index builds see on power-law degree
//      distributions. Report-only.
//   3. the real 2-hop label build on a generated social graph
//      (power-law follower distribution). Report-only.
//
// Each configuration runs kReps times, 1-thread and N-thread runs
// interleaved so drift hits both sides alike; scaling is the ratio of
// the medians, and min/max bracket the spread.
//
// Writes two sidecars:
//   bench_scheduler.metrics.json — full registry export (as every bench)
//   BENCH_scheduler.json         — trajectory summary (schema v2; keys
//                                  checked by scripts/verify.sh)
//
// Run:   ./bench/bench_scheduler [--smoke] [--threads N]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "gen/social_graph_generator.h"
#include "reach/two_hop_index.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace mel;

constexpr int kReps = 5;

// Cheap deterministic per-item busy work; the result is stored so the
// compiler cannot elide the loop.
inline uint64_t SpinWork(uint64_t seed, uint32_t units) {
  uint64_t x = seed | 1;
  for (uint32_t u = 0; u < units; ++u) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

struct Workload {
  std::vector<uint32_t> units;  // per-item cost
  size_t grain = 1;
};

// Power-law item costs, deterministically shuffled so heavy items are
// scattered through the range (as hub vertices are in a degree-ordered
// pass): item with rank r costs ~ count / (r + 1) units on top of a
// floor of 48 units (~100ns), so the tail items model real light
// vertices rather than free iterations whose cost is pure dispatch.
Workload MakeSkewedWorkload(size_t count) {
  Workload w;
  w.grain = 1;
  w.units.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t rank = (i * 2654435761ull) % count;
    w.units[i] = static_cast<uint32_t>(48 + count / (rank + 1));
  }
  return w;
}

Workload MakeUniformWorkload(size_t count) {
  Workload w;
  w.grain = 64;
  w.units.assign(count, 12);
  return w;
}

/// Wall times of one configuration, in milliseconds.
struct Timings {
  std::vector<double> ms;

  double Median() const {
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
  }
  double Min() const { return *std::min_element(ms.begin(), ms.end()); }
  double Max() const { return *std::max_element(ms.begin(), ms.end()); }
};

/// One workload timed on the serial and the wide pool.
struct Scaling {
  Timings serial;
  Timings wide;
  double ratio() const { return serial.Median() / wide.Median(); }
};

// Runs `run(pool)` once per pool to warm it (thread wakeup, page
// faults), then kReps times per pool, alternating pools.
Scaling Measure(util::ThreadPool& serial, util::ThreadPool& wide,
                const std::function<void(util::ThreadPool&)>& run) {
  run(serial);
  run(wide);
  Scaling s;
  for (int r = 0; r < kReps; ++r) {
    for (util::ThreadPool* pool : {&serial, &wide}) {
      WallTimer timer;
      run(*pool);
      (pool == &serial ? s.serial : s.wide)
          .ms.push_back(timer.ElapsedMillis());
    }
  }
  return s;
}

Scaling MeasureSynthetic(util::ThreadPool& serial, util::ThreadPool& wide,
                         const Workload& w) {
  std::vector<uint64_t> out(w.units.size());
  Scaling s = Measure(serial, wide, [&](util::ThreadPool& pool) {
    pool.ParallelFor(0, w.units.size(), w.grain, [&](size_t i) {
      out[i] = SpinWork(i, w.units[i]);
    });
  });
  // Fold the outputs into a checksum so the work is observable.
  uint64_t checksum = 0;
  for (uint64_t v : out) checksum ^= v;
  if (checksum == 42) std::printf("(unlikely checksum)\n");
  return s;
}

void PrintRow(const char* name, const Scaling& s) {
  std::printf("%-20s %8.2fms [%7.2f, %7.2f] %8.2fms [%7.2f, %7.2f] %7.2fx\n",
              name, s.serial.Median(), s.serial.Min(), s.serial.Max(),
              s.wide.Median(), s.wide.Min(), s.wide.Max(), s.ratio());
}

void WriteScaling(JsonWriter& w, const std::string& prefix,
                  const Scaling& s) {
  w.KeyValue(prefix + "_serial_ms", s.serial.Median());
  w.KeyValue(prefix + "_serial_min_ms", s.serial.Min());
  w.KeyValue(prefix + "_serial_max_ms", s.serial.Max());
  w.KeyValue(prefix + "_wide_ms", s.wide.Median());
  w.KeyValue(prefix + "_wide_min_ms", s.wide.Min());
  w.KeyValue(prefix + "_wide_max_ms", s.wide.Max());
  w.KeyValue(prefix + "_scaling", s.ratio());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  uint32_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--threads N]\n", argv[0]);
      return 1;
    }
  }
  const size_t skew_items = smoke ? (1u << 15) : (1u << 17);
  const size_t uniform_items = smoke ? (1u << 16) : (1u << 18);
  const uint32_t graph_users = smoke ? 600 : 1500;

  util::ThreadPool serial_pool(1);
  util::ThreadPool wide_pool(threads);  // 0 = hardware width
  threads = wide_pool.num_threads();
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("=== scheduler scaling: chunk-pull, 1 vs %u threads ===\n",
              threads);
  std::printf("hardware threads=%u, reps=%d, mode=%s\n", hw, kReps,
              smoke ? "smoke" : "full");

  const Scaling uniform = MeasureSynthetic(
      serial_pool, wide_pool, MakeUniformWorkload(uniform_items));
  const Scaling skewed = MeasureSynthetic(serial_pool, wide_pool,
                                          MakeSkewedWorkload(skew_items));

  gen::SocialGenOptions sopts;
  sopts.num_users = graph_users;
  sopts.num_topics = 15;
  sopts.seed = 5;
  auto social = gen::GenerateSocialGraph(sopts);
  const Scaling twohop =
      Measure(serial_pool, wide_pool, [&](util::ThreadPool& pool) {
        auto index = reach::TwoHopIndex::Build(&social.graph, 5, &pool);
        if (index.IndexSizeBytes() == 0) std::printf("(empty index)\n");
      });

  std::printf("\n%-20s %30s %30s %8s\n", "workload",
              "1 thread: median [min, max]", "N threads: median [min, max]",
              "scaling");
  PrintRow("uniform (grain 64)", uniform);
  PrintRow("skewed (grain 1)", skewed);
  PrintRow("2-hop build", twohop);
  std::printf("(2-hop build on %u users; skewed and 2-hop report-only)\n",
              graph_users);

  // ---- Sidecars ---------------------------------------------------
  auto& reg = metrics::Registry();
  reg.GetGauge("bench.scheduler.uniform_scaling_x100")
      ->Set(static_cast<int64_t>(uniform.ratio() * 100));
  reg.GetGauge("bench.scheduler.skew_scaling_x100")
      ->Set(static_cast<int64_t>(skewed.ratio() * 100));
  reg.GetGauge("bench.scheduler.twohop_scaling_x100")
      ->Set(static_cast<int64_t>(twohop.ratio() * 100));
  const char* metrics_path = "bench_scheduler.metrics.json";
  if (metrics::WriteJsonFile(metrics_path).ok()) {
    std::printf("\nmetrics JSON written to %s\n", metrics_path);
  }

  // The scaling floor only means something on real parallel hardware,
  // in full mode (smoke keeps CI fast and deterministic).
  const bool asserted = !smoke && hw >= 4 && threads >= 4;
  {
    std::ofstream sidecar("BENCH_scheduler.json");
    JsonWriter w(&sidecar);
    w.BeginObject();
    w.KeyValue("bench", std::string_view("scheduler"));
    w.KeyValue("schema_version", uint64_t{2});
    w.KeyValue("mode", std::string_view(smoke ? "smoke" : "full"));
    w.KeyValue("threads", uint64_t{threads});
    w.KeyValue("hw_threads", uint64_t{hw});
    w.KeyValue("reps", uint64_t{kReps});
    w.KeyValue("uniform_items", uint64_t{uniform_items});
    WriteScaling(w, "uniform", uniform);
    w.KeyValue("skew_items", uint64_t{skew_items});
    WriteScaling(w, "skew", skewed);
    w.KeyValue("twohop_users", uint64_t{graph_users});
    WriteScaling(w, "twohop", twohop);
    w.KeyValue("asserted", asserted);
    w.EndObject();
    sidecar << "\n";
    std::printf("trajectory written to BENCH_scheduler.json\n");
  }

  // ---- Acceptance gate --------------------------------------------
  if (!asserted) {
    std::printf(
        "floor not asserted (%s, %u hardware threads, %u pool threads); "
        "it applies in full mode at >= 4 hardware threads\n",
        smoke ? "smoke mode" : "full mode", hw, threads);
    return 0;
  }
  if (uniform.ratio() < 1.2) {
    std::printf("FAIL: uniform scaling %.2fx below the 1.2x floor\n",
                uniform.ratio());
    return 1;
  }
  return 0;
}
