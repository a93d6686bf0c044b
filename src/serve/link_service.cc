#include "serve/link_service.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace mel::serve {

namespace {

int64_t NanosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
      .count();
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// serve.* accounting (docs/METRICS.md). Pointers resolved once.
struct ServeMetrics {
  metrics::Counter* requests;
  metrics::Counter* admitted;
  metrics::Counter* responses;
  metrics::Counter* deadline_expired;
  metrics::Counter* shutdown_rejected;
  metrics::Counter* invalid_rejected;
  metrics::Counter* batches;
  metrics::Counter* feedback;
  metrics::Counter* mutations;
  metrics::Counter* mutations_rejected;
  metrics::Counter* barriers;
  metrics::Gauge* inflight;
  metrics::Gauge* epoch;
  metrics::Gauge* qps;
  metrics::Histogram* queue_wait_ns;
  metrics::Histogram* batch_size;
  metrics::Histogram* link_latency_ns;
  metrics::Histogram* batch_link_ns;
  metrics::Histogram* feedback_barrier_ns;
};

const ServeMetrics& GetServeMetrics() {
  static const ServeMetrics m = [] {
    auto& reg = metrics::Registry();
    ServeMetrics sm;
    sm.requests = reg.GetCounter("serve.requests_total");
    sm.admitted = reg.GetCounter("serve.admitted_total");
    sm.responses = reg.GetCounter("serve.responses_total");
    sm.deadline_expired = reg.GetCounter("serve.deadline_expired_total");
    sm.shutdown_rejected = reg.GetCounter("serve.shutdown_rejected_total");
    sm.invalid_rejected = reg.GetCounter("serve.invalid_rejected_total");
    sm.batches = reg.GetCounter("serve.batches_total");
    sm.feedback = reg.GetCounter("serve.feedback_total");
    sm.mutations = reg.GetCounter("serve.mutations_total");
    sm.mutations_rejected = reg.GetCounter("serve.mutations_rejected_total");
    sm.barriers = reg.GetCounter("serve.barriers_total");
    sm.inflight = reg.GetGauge("serve.inflight");
    sm.epoch = reg.GetGauge("serve.epoch");
    sm.qps = reg.GetGauge("serve.qps");
    sm.queue_wait_ns = reg.GetHistogram("serve.queue_wait_ns");
    sm.batch_size = reg.GetHistogram("serve.batch_size");
    sm.link_latency_ns = reg.GetHistogram("serve.link_latency_ns");
    sm.batch_link_ns = reg.GetHistogram("serve.batch_link_ns");
    sm.feedback_barrier_ns =
        reg.GetHistogram("serve.feedback_barrier_ns");
    return sm;
  }();
  return m;
}

}  // namespace

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kBlock: return "block";
    case AdmissionPolicy::kShed: return "shed";
    case AdmissionPolicy::kDeadline: return "deadline";
  }
  return "unknown";
}

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kOverloaded: return "overloaded";
    case ServeStatus::kDeadlineExpired: return "deadline_expired";
    case ServeStatus::kShutdown: return "shutdown";
    case ServeStatus::kInvalidRequest: return "invalid_request";
  }
  return "unknown";
}

LinkService::LinkService(core::EntityLinker* linker,
                         const ServeOptions& options)
    : linker_(linker), options_(options), queue_(options.queue_capacity) {
  MEL_CHECK(linker != nullptr);
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.warmup_on_start) linker_->WarmUp();
  if (options_.start_paused) queue_.SetPaused(true);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

LinkService::~LinkService() { Stop(); }

std::chrono::steady_clock::time_point LinkService::DeadlineFor(
    const LinkRequest& request,
    std::chrono::steady_clock::time_point submit_time) const {
  int64_t budget = request.deadline_ns != 0 ? request.deadline_ns
                                            : options_.default_deadline_ns;
  if (budget <= 0) return std::chrono::steady_clock::time_point::max();
  return submit_time + std::chrono::nanoseconds(budget);
}

std::future<LinkResponse> LinkService::Submit(LinkRequest request) {
  const ServeMetrics& sm = GetServeMetrics();
  sm.requests->Increment();

  PendingLink pending;
  pending.enqueued = std::chrono::steady_clock::now();
  pending.deadline = DeadlineFor(request, pending.enqueued);
  pending.request = std::move(request);
  std::future<LinkResponse> future = pending.promise.get_future();

  auto reject = [&pending](ServeStatus status) {
    LinkResponse response;
    response.status = status;
    pending.promise.set_value(std::move(response));
  };

  if (stopped_.load(std::memory_order_acquire)) {
    sm.shutdown_rejected->Increment();
    reject(ServeStatus::kShutdown);
    return future;
  }
  // The reachability walk indexes per-user tables with the author id;
  // an id outside the graph must never reach a batch.
  if (!linker_->IsValidUser(pending.request.user)) {
    sm.invalid_rejected->Increment();
    reject(ServeStatus::kInvalidRequest);
    return future;
  }

  switch (queue_.Push(std::move(pending), options_.policy)) {
    case RequestQueue::PushResult::kAccepted: {
      sm.admitted->Increment();
      int64_t expected = 0;
      first_admission_ns_.compare_exchange_strong(
          expected, NowNanos(), std::memory_order_relaxed);
      admitted_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case RequestQueue::PushResult::kOverloaded:
      // serve.shed_total is counted inside the queue.
      reject(ServeStatus::kOverloaded);
      break;
    case RequestQueue::PushResult::kExpired:
      sm.deadline_expired->Increment();
      reject(ServeStatus::kDeadlineExpired);
      break;
    case RequestQueue::PushResult::kClosed:
      sm.shutdown_rejected->Increment();
      reject(ServeStatus::kShutdown);
      break;
  }
  return future;
}

LinkResponse LinkService::LinkSync(LinkRequest request) {
  return Submit(std::move(request)).get();
}

std::future<uint64_t> LinkService::SubmitFeedback(kb::EntityId entity,
                                                  const kb::Tweet& tweet) {
  PendingFeedback pending;
  pending.entity = entity;
  pending.tweet = tweet;
  std::future<uint64_t> future = pending.ack.get_future();
  if (!linker_->IsValidFeedback(entity, tweet.user) ||
      stopped_.load(std::memory_order_acquire) ||
      !queue_.PushFeedback(std::move(pending))) {
    // PushFeedback left `pending` intact on failure (closed queue).
    pending.ack.set_value(kFeedbackRejected);
    return future;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

std::future<uint64_t> LinkService::SubmitMutation(
    const graph::EdgeDelta& delta) {
  PendingMutation pending;
  pending.delta = delta;
  std::future<uint64_t> future = pending.ack.get_future();
  if (!options_.mutation_handler ||
      stopped_.load(std::memory_order_acquire) ||
      !queue_.PushMutation(std::move(pending))) {
    GetServeMetrics().mutations_rejected->Increment();
    // PushMutation left `pending` intact on failure (closed queue).
    pending.ack.set_value(kMutationRejected);
    return future;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

void LinkService::Pause() { queue_.SetPaused(true); }

void LinkService::Resume() { queue_.SetPaused(false); }

void LinkService::WaitIdle() {
  std::unique_lock lock(idle_mu_);
  idle_cv_.wait(lock, [this] {
    return stopped_.load(std::memory_order_acquire) ||
           finished_.load(std::memory_order_acquire) >=
               admitted_.load(std::memory_order_acquire);
  });
}

void LinkService::Stop() {
  std::lock_guard stop_lock(stop_mu_);
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    std::lock_guard idle_lock(idle_mu_);
    stopped_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
}

void LinkService::NotifyIdle() {
  // Taking and releasing the mutex pairs the counter updates with the
  // WaitIdle predicate check, so a waiter between its predicate read and
  // its block cannot miss this wakeup.
  { std::lock_guard lock(idle_mu_); }
  idle_cv_.notify_all();
}

void LinkService::DispatcherLoop() {
  std::vector<PendingLink> batch;
  std::vector<PendingLink> expired;
  while (queue_.WaitDispatch(options_.max_batch, &batch, &expired)) {
    ExpireBatch(&expired);
    RunBatch(&batch);
    ApplyWriteBarrier();
    NotifyIdle();
  }
  // Closed and fully drained: nothing admitted is left behind.
  NotifyIdle();
}

void LinkService::ExpireBatch(std::vector<PendingLink>* expired) {
  if (expired->empty()) return;
  const ServeMetrics& sm = GetServeMetrics();
  const uint64_t e = epoch_.load(std::memory_order_relaxed);
  for (PendingLink& item : *expired) {
    LinkResponse response;
    response.status = ServeStatus::kDeadlineExpired;
    response.epoch = e;
    item.promise.set_value(std::move(response));
    sm.deadline_expired->Increment();
  }
  finished_.fetch_add(expired->size(), std::memory_order_release);
}

void LinkService::RunBatch(std::vector<PendingLink>* batch) {
  if (batch->empty()) return;
  const ServeMetrics& sm = GetServeMetrics();
  const uint64_t e = epoch_.load(std::memory_order_relaxed);
  const uint32_t n = static_cast<uint32_t>(batch->size());
  const auto dispatch_start = std::chrono::steady_clock::now();

  sm.batches->Increment();
  sm.batch_size->Record(n);
  sm.inflight->Set(n);

  // The batch is a pure read region: feedback only runs at the barrier
  // below, so concurrent LinkMention calls satisfy the WarmUp contract.
  util::ThreadPool::Shared().ParallelFor(
      0, n, /*grain=*/1,
      [&](size_t i) {
        PendingLink& item = (*batch)[i];
        LinkResponse response;
        response.status = ServeStatus::kOk;
        response.epoch = e;
        response.batch_size = n;
        response.queue_wait_ns =
            NanosBetween(item.enqueued, dispatch_start);
        response.result = linker_->LinkMention(
            item.request.mention, item.request.user, item.request.now);
        const auto done = std::chrono::steady_clock::now();
        sm.queue_wait_ns->Record(
            static_cast<uint64_t>(std::max<int64_t>(
                0, response.queue_wait_ns)));
        sm.link_latency_ns->Record(static_cast<uint64_t>(
            std::max<int64_t>(0, NanosBetween(item.enqueued, done))));
        item.promise.set_value(std::move(response));
      },
      options_.num_workers);

  sm.batch_link_ns->Record(static_cast<uint64_t>(std::max<int64_t>(
      0, NanosBetween(dispatch_start, std::chrono::steady_clock::now()))));
  sm.inflight->Set(0);
  sm.responses->Increment(n);
  completed_ok_.fetch_add(n, std::memory_order_relaxed);
  finished_.fetch_add(n, std::memory_order_release);

  // Sustained throughput since the first admission (the ROADMAP's
  // "sustained QPS" as a first-class metric).
  const int64_t started = first_admission_ns_.load(std::memory_order_relaxed);
  const int64_t elapsed = NowNanos() - started;
  if (started != 0 && elapsed > 0) {
    sm.qps->Set(static_cast<int64_t>(
        completed_ok_.load(std::memory_order_relaxed) * 1e9 /
        static_cast<double>(elapsed)));
  }
}

void LinkService::ApplyWriteBarrier() {
  std::vector<PendingFeedback> feedback;
  std::vector<PendingMutation> mutations;
  queue_.TakeFeedback(&feedback);
  queue_.TakeMutations(&mutations);
  if (feedback.empty() && mutations.empty()) return;
  const ServeMetrics& sm = GetServeMetrics();
  const auto barrier_start = std::chrono::steady_clock::now();

  // Writers run strictly between batches (FIFO submission order,
  // feedback before mutations), so no reader can observe a torn epoch:
  // either a batch sees none of this barrier's writes (it ran before) or
  // all of them (it runs after the single epoch bump below).
  for (const PendingFeedback& item : feedback) {
    linker_->ConfirmLink(item.entity, item.tweet);
  }
  // The handler mutates the graph and patches / invalidates every
  // registered reachability index while no reader is in flight.
  for (const PendingMutation& item : mutations) {
    options_.mutation_handler(item.delta);
  }
  // Re-establish the concurrent-read contract for the next batch:
  // re-sorts mutated posting lists and refills the influential-user
  // entries the writes invalidated.
  linker_->WarmUp();

  const uint64_t e = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  sm.epoch->Set(static_cast<int64_t>(e));
  sm.barriers->Increment();
  sm.feedback->Increment(feedback.size());
  sm.mutations->Increment(mutations.size());
  for (PendingFeedback& item : feedback) {
    item.ack.set_value(e);
  }
  for (PendingMutation& item : mutations) {
    item.ack.set_value(e);
  }
  finished_.fetch_add(feedback.size() + mutations.size(),
                      std::memory_order_release);
  sm.feedback_barrier_ns->Record(static_cast<uint64_t>(
      std::max<int64_t>(0, NanosBetween(barrier_start,
                                        std::chrono::steady_clock::now()))));
}

}  // namespace mel::serve
