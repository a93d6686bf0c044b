// Repository benchmark: serves one seeded workload through
// serve::LinkService and prints its metrics.
//
//   linkbench --workload <read_stream|follow_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 is the measured run (metrics registry off): end-to-end
// metrics. --trace 1 is the traced run: per-layer metrics from spans
// the client records around the public calls into each layer. Either
// way the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// ("failed" counts the operations that failed) and the exit code is 1
// when any correctness check failed. See NOTES.md.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "loadgen.h"
#include "session.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"
#include "workload.h"
#include "world.h"

namespace linkbench {
namespace {

using namespace mel;

// setup_s is the median of this many full world builds. Like the other
// gated times it is the process's CPU time (every thread), which time the
// hypervisor steals from a vCPU does not inflate; the wall time is a
// detail line.
constexpr int kSetupRepetitions = 3;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// nproc, SIMD tier, pool scheduler, build type and compiler: results
// from different hosts or builds are not comparable.
void PrintHost() {
  const char* scheduler =
      util::ThreadPool::Shared().scheduler() == util::SchedulerKind::kChunkPull
          ? "chunk"
          : "steal";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "host {\"nproc\": %ld, \"simd\": %s, \"scheduler\": %s, "
      "\"build_type\": %s, \"compiler\": %s}\n",
      sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(util::simd::LevelName(util::simd::ActiveLevel())).c_str(),
      JsonString(scheduler).c_str(), JsonString(LINKBENCH_BUILD_TYPE).c_str(),
      JsonString(compiler).c_str());
}

void PrintMetrics(const char* label, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-34s %16.4f %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The measured run: registry off, setup_s from three world builds, and
// the end-to-end metrics of one served session.
RunResult MeasuredRun(const WorkloadSpec& spec, uint64_t seed,
                      const Timing& timing) {
  std::vector<double> setup, setup_wall;
  std::unique_ptr<World> world;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    world.reset();
    const int64_t start = NowNs();
    const int64_t cpu_start = ProcessCpuNs();
    world = BuildWorld();
    setup.push_back((ProcessCpuNs() - cpu_start) / 1e9);
    setup_wall.push_back((NowNs() - start) / 1e9);
  }
  ServePlan plan;
  plan.write_probe = !spec.mutates();
  Session s = Serve(std::move(world), spec, seed, timing, plan);

  RunResult out;
  out.report = Check(&s, seed);
  out.attempted = s.AllOps().size();
  const std::vector<double> latency = LinkLatenciesUs(s.open);
  // A workload that writes is measured on its own writes; one that does
  // not, on the probe.
  const std::vector<OpRecord>& write_ops = s.probe.empty() ? s.open : s.probe;
  const std::vector<double> writes = WriteLatenciesUs(write_ops);
  const std::vector<double> write_cpu = WriteCpuUs(write_ops);
  size_t right = 0;
  for (const OpRecord& op : s.open) {
    if (op.kind == OpKind::kLink &&
        op.response.status == serve::ServeStatus::kOk &&
        op.response.result.best() == s.inputs.links[op.link].truth) {
      ++right;
    }
  }
  const ClosedLoopResult& closed = s.closed.front();
  out.metrics = {
      {"setup_s", Percentile(setup, 50), "s"},
      {"link_cpu_us", closed.cpu_seconds * 1e6 / closed.links, "us"},
      {"write_cpu_p50_us", Percentile(write_cpu, 50), "us"},
      {"write_cpu_p99_us", Percentile(write_cpu, 99), "us"},
      {"success_ratio",
       1.0 - static_cast<double>(out.report.failed_ops) / out.attempted,
       "ratio"},
      {"link_accuracy",
       latency.empty() ? 0.0 : static_cast<double>(right) / latency.size(),
       "ratio"},
      {"peak_rss_mb", s.peak_rss_mb, "MB"},
  };
  out.details = {
      {"open_loop.rate", kOpenRate, "links/s"},
      {"peak_links_per_s", closed.links / closed.seconds, "links/s"},
      {"write_visible_p50_us", Percentile(writes, 50), "us"},
      {"write_visible_p99_us", Percentile(writes, 99), "us"},
      {"open_loop.latency_samples", static_cast<double>(latency.size()),
       "count"},
      {"p50_latency_us", Percentile(latency, 50), "us"},
      {"p90_latency_us", Percentile(latency, 90), "us"},
      {"p95_latency_us", Percentile(latency, 95), "us"},
      {"p99_latency_us", Percentile(latency, 99), "us"},
      {"loadgen.late_p99_us", Percentile(LatenessUs(s.open), 99), "us"},
      {"write_visible.samples", static_cast<double>(writes.size()), "count"},
      {"write_visible.from_probe", s.probe.empty() ? 0.0 : 1.0, "bool"},
      {"closed_loop.links", static_cast<double>(closed.links), "count"},
      {"setup_s.min", *std::min_element(setup.begin(), setup.end()), "s"},
      {"setup_s.max", *std::max_element(setup.begin(), setup.end()), "s"},
      {"setup_wall_s", Percentile(setup_wall, 50), "s"},
  };
  return out;
}

int Run(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace) {
  metrics::SetEnabled(false);
  PrintHost();
  const Timing timing(seconds);
  const RunResult run = trace ? TracedRun(spec, seed, timing)
                              : MeasuredRun(spec, seed, timing);
  PrintMetrics("detail", run.details);
  PrintMetrics("metric", run.metrics);
  for (const std::string& m : run.report.messages) {
    std::printf("CHECK FAILED: %s\n", m.c_str());
  }
  const bool correct = run.report.ok();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.report.failed_ops);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "linkbench: %s\nusage: linkbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

}  // namespace
}  // namespace linkbench

int main(int argc, char** argv) {
  using namespace linkbench;
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      spec = FindWorkload(value);
      if (spec == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (spec == nullptr) return Usage("--workload is required");
  if (seconds <= 0) return Usage("--seconds must be positive");
  return Run(*spec, seed, seconds, trace != 0);
}
