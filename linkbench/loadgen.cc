#include "loadgen.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <thread>

namespace linkbench {

using namespace mel;

namespace {

// Pending replies of the ops in flight, indexed like the op records.
struct Replies {
  std::vector<std::future<serve::LinkResponse>> links;
  std::vector<std::future<uint64_t>> writes;

  explicit Replies(size_t n) : links(n), writes(n) {}
};

void Send(serve::LinkService* service, const std::vector<LinkInput>& links,
          OpRecord* op, size_t i, Replies* replies) {
  op->send_ns = NowNs();
  if (op->kind != OpKind::kLink) op->cpu_send_ns = ProcessCpuNs();
  switch (op->kind) {
    case OpKind::kLink:
      replies->links[i] = service->Submit(links[op->link].request);
      break;
    case OpKind::kFeedback:
      replies->writes[i] =
          service->SubmitFeedback(op->entity, op->tweet);
      break;
    case OpKind::kDelta:
      replies->writes[i] = service->SubmitMutation(op->delta);
      break;
  }
  op->submitted_ns = NowNs();
}

void Complete(OpRecord* op, size_t i, Replies* replies) {
  if (op->kind == OpKind::kLink) {
    op->response = replies->links[i].get();
  } else {
    op->ack = replies->writes[i].get();
    op->cpu_done_ns = ProcessCpuNs();
  }
  op->done_ns = NowNs();
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void RunOpenLoop(serve::LinkService* service,
                 const std::vector<LinkInput>& links,
                 std::vector<OpRecord>* ops) {
  const size_t n = ops->size();
  Replies replies(n);
  std::atomic<size_t> published{0};

  // The completion thread observes replies in submission order, as a
  // client reading one ordered response stream would.
  std::thread completer([&] {
    for (size_t i = 0; i < n; ++i) {
      size_t avail = published.load(std::memory_order_acquire);
      while (avail <= i) {
        published.wait(avail, std::memory_order_acquire);
        avail = published.load(std::memory_order_acquire);
      }
      Complete(&(*ops)[i], i, &replies);
    }
  });

  // Default timer slack (50 us) would make every wake-up late by up to
  // half an inter-arrival gap; the submitter asks for exact wake-ups.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const int64_t start = NowNs() + 2'000'000;
  bool paused = false;
  for (size_t i = 0; i < n; ++i) {
    OpRecord& op = (*ops)[i];
    const int64_t offset = op.due_ns;
    op.due_ns += start;
    const int64_t wait = op.due_ns - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    // Ops due at one instant go out as one group, as from a client's
    // batched call: dispatch is paused while the group is submitted, so
    // one barrier takes all of it, not as many as the dispatcher's
    // wake-ups happen to split it into.
    const bool group_continues = i + 1 < n && (*ops)[i + 1].due_ns == offset;
    if (group_continues && !paused) {
      service->Pause();
      paused = true;
    }
    Send(service, links, &op, i, &replies);
    if (!group_continues && paused) {
      service->Resume();
      paused = false;
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  completer.join();
}

ClosedLoopResult RunClosedLoop(serve::LinkService* service,
                               const std::vector<LinkInput>& links,
                               const ClosedLoopPlan& plan,
                               double max_seconds, size_t window) {
  ClosedLoopResult result;
  std::deque<std::future<serve::LinkResponse>> link_replies;
  std::deque<std::future<uint64_t>> write_replies;
  std::deque<size_t> outstanding;  // op indices of unanswered links
  std::vector<size_t> writes;      // op indices of every write
  std::vector<OpRecord> next;

  const int64_t start = NowNs();
  const int64_t cpu_start = ProcessCpuNs();
  const auto limit = static_cast<int64_t>(max_seconds * 1e9);
  int64_t last_done = start;
  auto send = [&](OpRecord& op) {
    const size_t i = result.ops.size();
    op.due_ns = op.send_ns = NowNs();
    if (op.kind == OpKind::kLink) {
      link_replies.push_back(service->Submit(links[op.link].request));
      outstanding.push_back(i);
      ++result.links;
    } else {
      write_replies.push_back(service->SubmitMutation(op.delta));
      writes.push_back(i);
    }
    op.submitted_ns = NowNs();
    result.ops.push_back(std::move(op));
  };
  auto complete_oldest = [&] {
    OpRecord& op = result.ops[outstanding.front()];
    op.response = link_replies.front().get();
    op.done_ns = last_done = NowNs();
    link_replies.pop_front();
    outstanding.pop_front();
  };

  bool more = true;
  while (more && NowNs() - start < limit) {
    next.clear();
    more = plan(result.links, /*closing=*/false, &next);
    for (OpRecord& op : next) send(op);
    while (outstanding.size() >= window) complete_oldest();
  }
  next.clear();
  plan(result.links, /*closing=*/true, &next);
  for (OpRecord& op : next) send(op);
  while (!outstanding.empty()) complete_oldest();
  result.seconds = (last_done - start) / 1e9;
  result.cpu_seconds = (ProcessCpuNs() - cpu_start) / 1e9;
  // Acks are collected after the loop; their done_ns is not a latency.
  for (size_t i : writes) {
    OpRecord& op = result.ops[i];
    op.ack = write_replies.front().get();
    op.done_ns = NowNs();
    write_replies.pop_front();
  }
  return result;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  const size_t k = std::clamp<size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double total = 0;
  for (double s : samples) total += s;
  return total / static_cast<double>(samples.size());
}

}  // namespace linkbench
