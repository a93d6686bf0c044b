#ifndef LINKBENCH_LOADGEN_H_
#define LINKBENCH_LOADGEN_H_

// Client side of the benchmark: drives serve::LinkService through its
// public API only, open loop (fixed schedule, one submitting thread plus
// one completion thread) or closed loop (fixed window of outstanding
// links, one thread), and records every operation it sent.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "graph/mutation.h"
#include "kb/types.h"
#include "serve/link_service.h"

namespace linkbench {

enum class OpKind : uint8_t { kLink, kFeedback, kDelta };

/// A link the client may send, with the generator's ground truth.
struct LinkInput {
  mel::serve::LinkRequest request;
  mel::kb::EntityId truth = mel::kb::kInvalidEntity;
};

/// One operation as sent, and what came back. Times are steady_clock
/// nanoseconds.
struct OpRecord {
  OpKind kind = OpKind::kLink;
  uint32_t link = 0;  // kLink: the link sent
  /// kFeedback: the entity confirmed and the confirming tweet.
  mel::kb::EntityId entity = mel::kb::kInvalidEntity;
  mel::kb::Tweet tweet;
  mel::graph::EdgeDelta delta;  // kDelta

  int64_t due_ns = 0;        // when the schedule wanted it sent
  int64_t send_ns = 0;       // when Submit* was called
  int64_t submitted_ns = 0;  // when Submit* returned
  int64_t done_ns = 0;       // when the response or ack was observed
  /// Writes in the open loop: the process's CPU clock at send and at the
  /// ack (what the service, mostly its barrier, spent in between).
  int64_t cpu_send_ns = 0;
  int64_t cpu_done_ns = 0;

  mel::serve::LinkResponse response;  // kLink
  uint64_t ack = 0;                   // kFeedback / kDelta: ack epoch
};

/// Steady-clock nanoseconds.
int64_t NowNs();
/// CPU time of the whole process (every thread), nanoseconds. Time the
/// hypervisor steals from a vCPU is not in it, unlike the wall clock.
int64_t ProcessCpuNs();

/// Sends `ops` (due_ns holds offsets from the loop start, ascending) at
/// their due times and fills in every time and outcome. Latency is
/// done_ns - due_ns, so a late generator is charged, not hidden.
void RunOpenLoop(mel::serve::LinkService* service,
                 const std::vector<LinkInput>& links,
                 std::vector<OpRecord>* ops);

/// What a closed loop sends next: appends the operations to send now
/// (links and follow deltas) given the links already sent, and returns
/// false when out of input.
/// Called once more with `closing` set after the loop ends, to flush
/// writes not yet sent.
using ClosedLoopPlan = std::function<bool(size_t links_sent, bool closing,
                                          std::vector<OpRecord>* ops)>;

struct ClosedLoopResult {
  /// A deque: it grows without copying every record it already holds.
  std::deque<OpRecord> ops;
  size_t links = 0;
  double seconds = 0;      // first send to last link response
  double cpu_seconds = 0;  // process CPU time over the same span
};

/// Keeps `window` links outstanding, sending what `plan` yields until it
/// runs out (or `max_seconds` pass, a guard against a stalled service);
/// then waits for every write ack.
ClosedLoopResult RunClosedLoop(mel::serve::LinkService* service,
                               const std::vector<LinkInput>& links,
                               const ClosedLoopPlan& plan,
                               double max_seconds, size_t window);

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when
/// empty.
double Percentile(std::vector<double> samples, double p);
double Mean(const std::vector<double>& samples);

}  // namespace linkbench

#endif  // LINKBENCH_LOADGEN_H_
