#ifndef LINKBENCH_WORKLOAD_H_
#define LINKBENCH_WORKLOAD_H_

// The workloads: their fixed shapes and rates, the inputs and schedules
// built from a seed, and the correctness checks run on what the service
// answered.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "loadgen.h"
#include "reach/reach_maintainer.h"
#include "serve/link_service.h"
#include "world.h"

namespace linkbench {

/// Open-loop links per second of every workload: a constant, never
/// derived from a measured capacity, so the parent and a change are
/// offered the same load. BENCHMARK.json's `why`s state it.
inline constexpr double kOpenRate = 4000;
/// Share of stream surfaces given one seeded character edit, so the
/// fuzzy candidate path runs.
inline constexpr double kTypoProb = 0.1;

/// A workload's fixed shape: the shared stream, plus follow deltas.
struct WorkloadSpec {
  std::string_view name;
  /// One follow-graph delta per interval (0: none). Every delta is a
  /// follow except the open loop's last, an unfollow.
  double delta_interval_s;

  bool mutates() const { return delta_interval_s > 0; }
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// How a run of `seconds` is split between the two measured loops.
struct Timing {
  double open_s;    // open loop at the fixed rate
  double closed_s;  // closed loop: sets its work (nominal length)
  explicit Timing(double seconds)
      : open_s(0.6 * seconds), closed_s(0.4 * seconds) {}
};

/// Closed-loop window: outstanding links kept by the single client, two
/// full micro-batches.
inline constexpr size_t kClosedWindow = 256;
/// The closed loop is bounded by work, not time: it sends this many
/// links per nominal closed-loop second, the whole stream in time order,
/// so the parent and a change link the same mentions however fast they
/// are. Its wall time is work ÷ speed (about half of closed_s at the
/// peak measured on 4 vCPUs).
inline constexpr double kClosedLinksPerSecond = 30'000;

/// Everything a run sends, generated from the seed before the service
/// starts; the service sees nothing else.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  /// Time order; the closed loop sends all of them, the open loop an
  /// even sample.
  std::vector<LinkInput> links;
  size_t open_links = 0;  // links the open loop sends
  std::vector<mel::graph::EdgeDelta> deltas;
  size_t open_deltas = 0;  // deltas[0, open_deltas) go to the open loop
  std::vector<OpRecord> open_ops;  // the open-loop schedule
};

Inputs MakeInputs(const WorkloadSpec& spec, const World& world,
                  uint64_t seed, const Timing& timing);

/// The closed loop's source of operations: links[link_begin, link_end)
/// in order (never wrapping: a wrap would move `now` backwards), with
/// deltas[delta_begin, delta_end) spread evenly among them by link count.
ClosedLoopPlan MakeClosedPlan(const Inputs& inputs, size_t link_begin,
                              size_t link_end, size_t delta_begin,
                              size_t delta_end);

/// The write-visibility probe of a workload that does not write, sent on
/// the otherwise idle service: kProbeBursts bursts of kProbeBurst
/// confirmations, one burst every kProbeBurstGapS. Each burst goes out
/// as one group, so one barrier applies it; its ConfirmLinks and WarmUp,
/// tens of ms of work, set the write's cost and visibility. The confirmed
/// mentions come from kProbeStreams streams of their own, drawn from the
/// seed, and every burst samples the whole timeline of each: a stream's
/// few burst events (a popular entity taking most tweets for days) set
/// much of a barrier's cost, so one stream would make the cost a property
/// of the seed's events rather than of the barrier.
inline constexpr size_t kProbeBursts = 120;
inline constexpr size_t kProbeBurst = 200;
inline constexpr size_t kProbeStreams = 8;
inline constexpr double kProbeBurstGapS = 0.1;
static_assert(kProbeBurst % kProbeStreams == 0);
std::vector<OpRecord> FeedbackProbeOps(const World& world, uint64_t seed);

/// Service configuration shared by every run: micro-batches of up to 128
/// (at peak load a batch's ParallelFor gives each participant ~1.5 ms of
/// work, so when the host stalls one participant the others spend less
/// time waiting at the batch's end than with 32), a queue deep enough
/// that the fixed rates never fill it, and shedding (not blocking)
/// admission so overload shows up as errors.
mel::serve::ServeOptions ServeConfig();

/// A mutation handler applying deltas through a ReachMaintainer on the
/// world's own graph copy and recording each ApplyDelta outcome and
/// duration (the handler runs on the dispatcher thread; read the log
/// only after the service is idle).
struct DeltaLog {
  std::vector<mel::reach::ReachMaintainer::ApplyResult> results;
  std::vector<double> apply_us;
};
std::function<void(const mel::graph::EdgeDelta&)> RecordingHandler(
    mel::reach::ReachMaintainer* maintainer, DeltaLog* log);

/// Outcome of the correctness checks. Operations that failed (a link
/// not served or answered wrongly, a write not acked or not applied)
/// count toward the error rate; checks of the final state fail the run
/// without counting as operations. Messages say what failed.
struct CheckReport {
  size_t failed_ops = 0;
  size_t failed_checks = 0;
  std::vector<std::string> messages;
  void FailOps(size_t count, std::string message);
  void FailCheck(size_t count, std::string message);
  bool ok() const { return failed_ops == 0 && failed_checks == 0; }
};

/// Writes acked and ack epochs monotone in submission order; link
/// epochs monotone likewise. `ops` are every op of one service, in
/// submission order.
void CheckAcksAndEpochs(const std::vector<const OpRecord*>& ops,
                        CheckReport* report);

/// For a stream whose writes all come after its links: requires every
/// kOk response to be bit-identical to `ref` (a linker over a snapshot
/// of the complemented KB taken before serving), then replays the
/// confirmations in submission order on `ref` and probes both final
/// states on seeded queries.
void CheckAgainstReplay(const std::vector<const OpRecord*>& ops,
                        const std::vector<LinkInput>& links,
                        Reference* ref, const World& served, uint64_t seed,
                        CheckReport* report);

/// The maintained 2-hop index must answer ScoreOnly exactly like a
/// fresh build on the mutated graph over a seeded sample of pairs; every
/// delta must have applied.
void CheckMaintainedIndex(const World& world, const DeltaLog& log,
                          size_t deltas_sent, uint64_t seed,
                          CheckReport* report);

}  // namespace linkbench

#endif  // LINKBENCH_WORKLOAD_H_
