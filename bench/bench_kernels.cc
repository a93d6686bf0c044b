// SIMD kernel A/B: the vectorized hot loops (sorted-intersection merge
// + gallop, fuzzy-index probe scan, dense-BFS frontier filter) timed
// with the scalar kernel table against the runtime-dispatched table on
// the same operands.
//
// Operands are workload-shaped, not synthetic best cases: intersection
// runs over inlink lists of a generated knowledgebase biased toward
// popular entities (the candidate sets WLM actually intersects), and
// the probe table
// mirrors SegmentFuzzyIndex's layout (power-of-two, 64-bit keys,
// golden-ratio start slot, linear scan).
//
// Every kernel is checked for bit-identity between the two arms before
// timing — a speedup from a wrong answer is meaningless. Full mode
// asserts the dispatched merge intersection is >= 1.5x scalar when the
// active tier is AVX2 (the contract in docs/PERFORMANCE.md); on hosts
// without AVX2 the assertion is skipped with a logged reason. Results
// go to bench.kernels.* gauges and the BENCH_kernels.json trajectory
// sidecar checked by scripts/verify.sh.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/kb_generator.h"
#include "graph/bfs.h"
#include "kb/knowledgebase.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/simd/simd.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using mel::Rng;
using mel::WallTimer;
namespace simd = mel::util::simd;

struct KernelAb {
  const char* name = "";
  uint64_t ops = 0;          // kernel invocations per timed arm
  double scalar_ns = 0;      // mean per invocation
  double dispatched_ns = 0;  // mean per invocation
  double speedup = 0;
};

void PrintAb(const KernelAb& r) {
  std::printf("%-10s : scalar %s vs dispatched %s  -> %.2fx  (%llu ops)\n",
              r.name, mel::HumanNanos(r.scalar_ns).c_str(),
              mel::HumanNanos(r.dispatched_ns).c_str(), r.speedup,
              static_cast<unsigned long long>(r.ops));
}

// Times `body` (which runs the whole operand set once) `reps` times and
// returns mean nanoseconds per kernel invocation.
template <typename Body>
double TimeArm(uint32_t reps, uint64_t ops_per_rep, Body&& body) {
  body();  // warm caches and page in operands outside the timer
  WallTimer timer;
  for (uint32_t r = 0; r < reps; ++r) body();
  return static_cast<double>(timer.ElapsedNanos()) /
         static_cast<double>(reps) / static_cast<double>(ops_per_rep);
}

// --- intersection (merge + gallop) -----------------------------------

struct IntersectOperands {
  // Backing lists, then index pairs into them.
  std::vector<std::vector<uint32_t>> lists;
  std::vector<std::pair<uint32_t, uint32_t>> merge_pairs;
  std::vector<std::pair<uint32_t, uint32_t>> gallop_pairs;  // small, large
};

IntersectOperands MakeIntersectOperands(const mel::kb::Knowledgebase& kb,
                                        uint32_t num_pairs, Rng* rng) {
  IntersectOperands ops;
  const uint32_t n = kb.num_entities();

  // Entities ranked by inlink count; WLM's expensive intersections are
  // between the popular candidates of ambiguous surfaces, so pairs are
  // drawn from the most-linked quartile.
  std::vector<uint32_t> by_size(n);
  std::iota(by_size.begin(), by_size.end(), 0u);
  std::sort(by_size.begin(), by_size.end(), [&](uint32_t a, uint32_t b) {
    return kb.Inlinks(a).size() > kb.Inlinks(b).size();
  });
  const uint32_t top = std::max<uint32_t>(2, n / 4);
  for (uint32_t e = 0; e < top; ++e) {
    const auto span = kb.Inlinks(by_size[e]);
    ops.lists.emplace_back(span.begin(), span.end());
  }
  for (uint32_t i = 0; i < num_pairs; ++i) {
    const auto a = static_cast<uint32_t>(rng->Uniform(top));
    const auto b = static_cast<uint32_t>(rng->Uniform(top));
    ops.merge_pairs.emplace_back(a, b);
  }

  // Gallop operands: a short candidate list against a popular entity's
  // full inlink list (the >= 16:1 ratio the dispatcher routes to
  // galloping). Smalls are sampled from the entity-id universe so about
  // half their members hit.
  const uint32_t num_large = std::min<uint32_t>(8, top);
  for (uint32_t i = 0; i < num_pairs; ++i) {
    const uint32_t large = static_cast<uint32_t>(rng->Uniform(num_large));
    const size_t nl = ops.lists[large].size();
    const size_t ns = std::max<size_t>(2, std::min<size_t>(32, nl / 16));
    std::vector<uint32_t> small;
    while (small.size() < ns) {
      const uint32_t x =
          (rng->Next() & 1)
              ? ops.lists[large][rng->Uniform(nl)]
              : static_cast<uint32_t>(rng->Uniform(n));
      small.push_back(x);
      std::sort(small.begin(), small.end());
      small.erase(std::unique(small.begin(), small.end()), small.end());
    }
    ops.lists.push_back(std::move(small));
    ops.gallop_pairs.emplace_back(
        static_cast<uint32_t>(ops.lists.size() - 1), large);
  }
  return ops;
}

KernelAb RunIntersectAb(const IntersectOperands& ops, bool gallop,
                        uint32_t reps, const simd::KernelTable& scalar,
                        const simd::KernelTable& dispatched) {
  const auto& pairs = gallop ? ops.gallop_pairs : ops.merge_pairs;
  auto run = [&](const simd::KernelTable& t) {
    uint64_t sum = 0;
    for (const auto& [ia, ib] : pairs) {
      const auto& a = ops.lists[ia];
      const auto& b = ops.lists[ib];
      sum += gallop ? t.gallop_count(a.data(), a.size(), b.data(), b.size())
                    : t.merge_count(a.data(), a.size(), b.data(), b.size());
    }
    return sum;
  };
  if (run(scalar) != run(dispatched)) {
    std::fprintf(stderr, "FAIL: %s kernel arms disagree\n",
                 gallop ? "gallop" : "merge");
    std::abort();
  }
  KernelAb r;
  r.name = gallop ? "gallop" : "merge";
  r.ops = pairs.size();
  volatile uint64_t sink = 0;
  r.scalar_ns = TimeArm(reps, r.ops, [&] { sink = sink + run(scalar); });
  r.dispatched_ns = TimeArm(reps, r.ops, [&] { sink = sink + run(dispatched); });
  r.speedup = r.scalar_ns / r.dispatched_ns;
  return r;
}

// --- fuzzy-index probe scan ------------------------------------------

KernelAb RunProbeAb(uint32_t capacity_log2, uint32_t num_probes,
                    uint32_t reps, Rng* rng,
                    const simd::KernelTable& scalar,
                    const simd::KernelTable& dispatched) {
  const size_t cap = size_t{1} << capacity_log2;
  const size_t mask = cap - 1;
  std::vector<uint64_t> keys(cap, 0);
  std::vector<uint64_t> present;
  while (present.size() < cap * 6 / 10) {  // SegmentFuzzyIndex load factor
    const uint64_t k = rng->Next() | 1;
    size_t idx = (k * 0x9E3779B97F4A7C15ull) & mask;
    while (keys[idx] != 0 && keys[idx] != k) idx = (idx + 1) & mask;
    if (keys[idx] == 0) {
      keys[idx] = k;
      present.push_back(k);
    }
  }
  std::vector<std::pair<uint64_t, size_t>> probes(num_probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    const uint64_t key = (i % 2 == 0) ? present[rng->Uniform(present.size())]
                                      : (rng->Next() | 1);
    probes[i] = {key, (key * 0x9E3779B97F4A7C15ull) & mask};
  }
  auto run = [&](const simd::KernelTable& t) {
    uint64_t sum = 0;
    for (const auto& [key, start] : probes) {
      sum += t.probe_scan(keys.data(), mask, key, start);
    }
    return sum;
  };
  if (run(scalar) != run(dispatched)) {
    std::fprintf(stderr, "FAIL: probe kernel arms disagree\n");
    std::abort();
  }
  KernelAb r;
  r.name = "probe";
  r.ops = num_probes;
  volatile uint64_t sink = 0;
  r.scalar_ns = TimeArm(reps, r.ops, [&] { sink = sink + run(scalar); });
  r.dispatched_ns = TimeArm(reps, r.ops, [&] { sink = sink + run(dispatched); });
  r.speedup = r.scalar_ns / r.dispatched_ns;
  return r;
}

// --- dense-BFS frontier filter ---------------------------------------

KernelAb RunFrontierAb(uint32_t num_nodes, uint32_t reps, Rng* rng,
                       const simd::KernelTable& scalar,
                       const simd::KernelTable& dispatched) {
  const size_t nwords = (num_nodes + 63) / 64;
  std::vector<uint64_t> next(nwords), visited(nwords);
  for (auto& x : next) x = rng->Next();
  for (auto& x : visited) x = rng->Next();
  // frontier_and_not is idempotent (andnot with a fixed mask), so both
  // arms can re-apply it in place without per-rep copies polluting the
  // measurement. Bit-identity first:
  {
    std::vector<uint64_t> a = next, b = next;
    scalar.frontier_and_not(a.data(), visited.data(), nwords);
    dispatched.frontier_and_not(b.data(), visited.data(), nwords);
    if (a != b) {
      std::fprintf(stderr, "FAIL: frontier kernel arms disagree\n");
      std::abort();
    }
  }
  KernelAb r;
  r.name = "frontier";
  r.ops = 1;
  r.scalar_ns = TimeArm(reps, r.ops, [&] {
    scalar.frontier_and_not(next.data(), visited.data(), nwords);
  });
  r.dispatched_ns = TimeArm(reps, r.ops, [&] {
    dispatched.frontier_and_not(next.data(), visited.data(), nwords);
  });
  r.speedup = r.scalar_ns / r.dispatched_ns;
  return r;
}

// Trajectory sidecar (schema v2: the minsum_* keys are gone with the
// min-sum kernel; keys checked by verify.sh).
void WriteKernelsSidecar(const std::vector<KernelAb>& results, bool smoke) {
  std::ofstream sidecar("BENCH_kernels.json");
  mel::JsonWriter w(&sidecar);
  w.BeginObject();
  w.KeyValue("bench", std::string_view("kernels"));
  w.KeyValue("schema_version", uint64_t{2});
  w.KeyValue("mode", std::string_view(smoke ? "smoke" : "full"));
  w.KeyValue("level",
             std::string_view(simd::LevelName(simd::ActiveLevel())));
  for (const auto& r : results) {
    const std::string prefix(r.name);
    w.KeyValue(prefix + "_scalar_ns", r.scalar_ns);
    w.KeyValue(prefix + "_dispatched_ns", r.dispatched_ns);
    w.KeyValue(prefix + "_speedup", r.speedup);
  }
  w.EndObject();
  sidecar << "\n";
  std::printf("trajectory written to BENCH_kernels.json\n");
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

  const simd::Level level = simd::ActiveLevel();
  std::printf("=== SIMD kernels (active tier: %s) ===\n",
              simd::LevelName(level));
  const simd::KernelTable& scalar =
      simd::KernelsFor(simd::Level::kScalar);
  const simd::KernelTable& dispatched = simd::Kernels();

  Rng rng(17);

  // Knowledgebase sized so popular entities carry the multi-hundred
  // element inlink lists WLM sees on real corpora (Zipf skew
  // concentrates the 64-per-entity link mass on the head).
  mel::gen::KbGenOptions kopts;
  kopts.num_entities = smoke ? 600 : 4000;
  kopts.links_per_entity = smoke ? 16 : 64;
  kopts.seed = 17;
  auto gen_kb = mel::gen::GenerateKnowledgebase(kopts);
  const auto& kb = gen_kb.knowledgebase;

  // Frontier width of a BFS over a social graph of this many users.
  const uint32_t num_users = smoke ? 300 : 2000;

  const uint32_t pairs = smoke ? 200 : 2000;
  const uint32_t reps = smoke ? 5 : 40;

  const auto intersect_ops = MakeIntersectOperands(kb, pairs, &rng);
  std::vector<KernelAb> results;
  results.push_back(
      RunIntersectAb(intersect_ops, /*gallop=*/false, reps, scalar,
                     dispatched));
  results.push_back(
      RunIntersectAb(intersect_ops, /*gallop=*/true, reps, scalar,
                     dispatched));
  results.push_back(RunProbeAb(smoke ? 10 : 14, pairs * 4, reps, &rng,
                               scalar, dispatched));
  results.push_back(
      RunFrontierAb(num_users, reps * 2000, &rng, scalar,
                    dispatched));
  for (const auto& r : results) PrintAb(r);

  auto& reg = mel::metrics::Registry();
  for (const auto& r : results) {
    const std::string prefix = std::string("bench.kernels.") + r.name;
    reg.GetGauge(prefix + "_scalar_ns")
        ->Set(static_cast<int64_t>(r.scalar_ns));
    reg.GetGauge(prefix + "_dispatched_ns")
        ->Set(static_cast<int64_t>(r.dispatched_ns));
  }

  WriteKernelsSidecar(results, smoke);

  // Contract: AVX2 merge intersection >= 1.5x scalar at these operand
  // shapes. Only enforceable where the AVX2 tier is actually active.
  if (!smoke) {
    if (level == simd::Level::kAvx2) {
      const double merge_speedup = results[0].speedup;
      if (merge_speedup < 1.5) {
        std::fprintf(stderr,
                     "FAIL: AVX2 merge intersection only %.2fx scalar "
                     "(contract: >= 1.5x)\n",
                     merge_speedup);
        return 1;
      }
    } else {
      std::printf(
          "speedup floor skipped: active tier is %s, contract applies "
          "to avx2 hosts only\n",
          simd::LevelName(level));
    }
  }

  const char* metrics_path = "bench_kernels.metrics.json";
  if (mel::metrics::WriteJsonFile(metrics_path).ok()) {
    std::printf("metrics JSON written to %s\n", metrics_path);
  }
  return 0;
}
