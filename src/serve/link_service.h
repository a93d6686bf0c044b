#ifndef MEL_SERVE_LINK_SERVICE_H_
#define MEL_SERVE_LINK_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/entity_linker.h"
#include "graph/mutation.h"
#include "serve/request_queue.h"
#include "serve/types.h"

namespace mel::serve {

/// \brief Tunables of the online linking service.
struct ServeOptions {
  /// Pool participants linking one micro-batch (passed as max_threads to
  /// the shared util::ThreadPool); 0 = the whole pool.
  uint32_t num_workers = 0;
  /// Micro-batch cap: link requests grouped per epoch. 1 degenerates to
  /// one-at-a-time serving (the bench baseline).
  uint32_t max_batch = 32;
  /// Admission cap of the request queue.
  size_t queue_capacity = 1024;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  /// Default wall-clock serving budget applied to requests that carry
  /// deadline_ns == 0; 0 = no deadline.
  int64_t default_deadline_ns = 0;
  /// Construct the service paused (no dispatch until Resume()). Tests use
  /// this to control batch boundaries deterministically.
  bool start_paused = false;
  /// Call linker->WarmUp() before serving the first batch, making the
  /// concurrent-read contract hold from request one. Disable only when
  /// the caller already warmed the linker.
  bool warmup_on_start = true;
  /// Applies one follow-edge delta at the epoch barrier, while no batch
  /// is in flight — typically reach::ReachMaintainer::ApplyDelta, which
  /// mutates the graph and patches or invalidates every registered
  /// reachability index. Unset: SubmitMutation rejects immediately with
  /// kMutationRejected. The handler runs on the dispatcher thread with
  /// no concurrent readers, so it needs no internal locking.
  std::function<void(const graph::EdgeDelta&)> mutation_handler;
};

/// \brief The long-lived online linking service: a bounded request queue
/// feeding EntityLinker workers on the shared thread pool, micro-batching
/// link requests per epoch and interleaving ConfirmLink feedback writes
/// behind an epoch barrier.
///
/// One dispatcher thread owns the serving loop:
///
///   wait -> admit batch -> link batch (ParallelFor, read-only) ->
///   complete futures -> apply pending feedback + graph mutations
///   (serial, no readers) -> WarmUp -> bump epoch (once) -> repeat
///
/// Because every ConfirmLink and every graph mutation runs between
/// batches, readers never observe a torn epoch: all responses of one
/// batch carry the same epoch stamp,
/// and the batch is bit-identical to linking its members one at a time
/// against the same epoch's knowledgebase state (asserted by
/// tests/serve_test.cc and bench_serving). The micro-batch is also what
/// amortizes cache work: the recency-propagation memoization and the
/// influential-user index are invalidated per barrier, not per request,
/// so a batch of B requests pays each cluster recomputation once instead
/// of up to B times under interleaved feedback.
///
/// Thread safety: Submit / SubmitFeedback / LinkSync may be called from
/// any number of threads. Stop() drains everything already admitted.
class LinkService {
 public:
  /// The linker (and everything it references) must outlive the service.
  /// The service assumes exclusive ownership of linker mutation: no other
  /// thread may call ConfirmLink / WarmUp / mutate the CKB while the
  /// service runs — route feedback through SubmitFeedback instead.
  LinkService(core::EntityLinker* linker, const ServeOptions& options);
  ~LinkService();

  LinkService(const LinkService&) = delete;
  LinkService& operator=(const LinkService&) = delete;

  /// Submits one link request; the future resolves with the terminal
  /// outcome (kOk result, or kOverloaded / kDeadlineExpired / kShutdown,
  /// or kInvalidRequest when the author is not a social-graph user).
  /// Under kBlock (and kDeadline, up to the deadline) this call blocks
  /// while the queue is at capacity — that is the backpressure.
  std::future<LinkResponse> Submit(LinkRequest request);

  /// Submit + wait. Convenience for interactive callers.
  LinkResponse LinkSync(LinkRequest request);

  /// Queues a ConfirmLink write; it is applied at the next epoch barrier,
  /// serialized after the in-flight batch. The future resolves with the
  /// first epoch whose responses observe the write, or kFeedbackRejected
  /// if the service stopped first or the write is not well-formed
  /// (EntityLinker::IsValidFeedback: unknown entity or user id).
  std::future<uint64_t> SubmitFeedback(kb::EntityId entity,
                                       const kb::Tweet& tweet);

  /// Queues a follow-edge delta; it is applied through
  /// ServeOptions::mutation_handler at the next epoch barrier, after the
  /// in-flight batch and after the barrier's feedback writes. The future
  /// resolves with the first epoch whose responses observe the mutated
  /// graph (kMutationRejected if the service stopped first or no handler
  /// is installed). Feedback and mutations landing at the same barrier
  /// share a single epoch bump.
  std::future<uint64_t> SubmitMutation(const graph::EdgeDelta& delta);

  /// Dispatch control (admission is unaffected): while paused, requests
  /// and feedback accumulate in the queue. Stop() implies Resume().
  void Pause();
  void Resume();

  /// Blocks until every admitted request and feedback write has reached
  /// its terminal state and the service is idle. No-op when stopped.
  void WaitIdle();

  /// Stops admission, drains every already-admitted request and feedback
  /// write, and joins the dispatcher. Idempotent; called by ~LinkService.
  void Stop();

  /// Number of feedback barriers applied so far (the epoch stamped onto
  /// responses). Monotone.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// kOk responses delivered so far.
  uint64_t completed_ok() const {
    return completed_ok_.load(std::memory_order_relaxed);
  }

  const ServeOptions& options() const { return options_; }

 private:
  void DispatcherLoop();
  void NotifyIdle();
  void RunBatch(std::vector<PendingLink>* batch);
  void ExpireBatch(std::vector<PendingLink>* expired);
  void ApplyWriteBarrier();
  std::chrono::steady_clock::time_point DeadlineFor(
      const LinkRequest& request,
      std::chrono::steady_clock::time_point submit_time) const;

  core::EntityLinker* linker_;
  ServeOptions options_;
  RequestQueue queue_;

  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> completed_ok_{0};

  // Idle tracking: admitted counts every accepted link request and
  // feedback write; finished counts terminal outcomes (response set or
  // feedback acked). WaitIdle waits for equality with an empty queue.
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> finished_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  // QPS accounting: first admission starts the clock.
  std::atomic<int64_t> first_admission_ns_{0};

  std::atomic<bool> stopped_{false};
  std::mutex stop_mu_;  // serializes Stop callers
  std::thread dispatcher_;
};

}  // namespace mel::serve

#endif  // MEL_SERVE_LINK_SERVICE_H_
