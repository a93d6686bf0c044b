#ifndef LINKBENCH_SESSION_H_
#define LINKBENCH_SESSION_H_

// One served run of a workload: builds the service over a world, drives
// the open loop, the closed loop and (for a workload that never writes)
// the write-visibility probe, and checks what came back.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kb/complemented_kb.h"
#include "loadgen.h"
#include "workload.h"
#include "world.h"

namespace linkbench {

/// A printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run prints: the gated metrics, extra detail lines, and the
/// checks' outcome over every operation attempted.
struct RunResult {
  CheckReport report;
  size_t attempted = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
};

struct Session {
  std::unique_ptr<World> world;
  /// The complemented KB as it was before serving: the replay's start.
  std::unique_ptr<mel::kb::ComplementedKnowledgebase> snapshot;
  Inputs inputs;
  DeltaLog delta_log;
  size_t deltas_sent = 0;
  std::vector<OpRecord> open;
  std::vector<ClosedLoopResult> closed;  // one per closed-loop slice
  std::vector<OpRecord> probe;
  /// The process's peak resident set when the open loop ended: set-up,
  /// inputs and open-loop serving, before the closed loop's records.
  double peak_rss_mb = 0;

  /// Every op, in submission order.
  std::vector<const OpRecord*> AllOps() const;
};

struct ServePlan {
  /// The closed loop's links are split into this many slices, each with
  /// its share of the deltas.
  size_t closed_slices = 1;
  /// Registry on for the open loop and every odd closed-loop slice
  /// (even slices stay off, giving the untraced peak to compare with).
  bool traced = false;
  bool write_probe = false;
};

/// Takes ownership of `world` and serves the workload on one
/// LinkService: open loop, closed-loop slices, optional probe.
Session Serve(std::unique_ptr<World> world, const WorkloadSpec& spec,
              uint64_t seed, const Timing& timing, const ServePlan& plan);

/// Runs the workload's correctness checks and counts non-kOk links.
CheckReport Check(Session* session, uint64_t seed);

/// Open-loop link latencies (due to response, us) of kOk links.
std::vector<double> LinkLatenciesUs(const std::vector<OpRecord>& ops);
/// Write latencies (due to ack, us) of acked writes.
std::vector<double> WriteLatenciesUs(const std::vector<OpRecord>& ops);
/// Process CPU time (send to ack, us) of acked writes.
std::vector<double> WriteCpuUs(const std::vector<OpRecord>& ops);
/// Generator lateness (due to send, us) of every op.
std::vector<double> LatenessUs(const std::vector<OpRecord>& ops);

}  // namespace linkbench

#endif  // LINKBENCH_SESSION_H_
