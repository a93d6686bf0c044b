#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "util/random.h"
#include "util/thread_pool.h"

namespace linkbench {

using namespace mel;

namespace {

// DeriveSeed stream ids (world.cc owns 0..5): the checks, then the write
// probe's streams.
constexpr uint64_t kProbeStream = 6;
constexpr uint64_t kPairStream = 7;
constexpr uint64_t kFeedbackStream = 8;

// Confirmation tweets get ids far above the generated corpus.
constexpr kb::TweetId kProbeFeedbackIds = 20'000'000;

// Same entities and bitwise-equal scores, in the same order.
bool BitIdentical(const core::MentionLinkResult& a,
                  const core::MentionLinkResult& b) {
  if (a.ranked.size() != b.ranked.size() ||
      a.probable_new_entity != b.probable_new_entity) {
    return false;
  }
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    const core::ScoredEntity& x = a.ranked[i];
    const core::ScoredEntity& y = b.ranked[i];
    if (x.entity != y.entity || x.score != y.score ||
        x.interest != y.interest || x.recency != y.recency ||
        x.popularity != y.popularity) {
      return false;
    }
  }
  return true;
}

OpRecord DeltaOp(const graph::EdgeDelta& delta) {
  OpRecord op;
  op.kind = OpKind::kDelta;
  op.delta = delta;
  return op;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"read_stream", /*delta_interval_s=*/0},
      {"follow_churn", /*delta_interval_s=*/0.5},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, const World& world,
                  uint64_t seed, const Timing& timing) {
  Inputs in;
  in.spec = &spec;
  in.open_links = static_cast<size_t>(std::llround(kOpenRate * timing.open_s));
  const size_t count = std::max(
      in.open_links,
      static_cast<size_t>(kClosedLinksPerSecond * timing.closed_s));
  for (StreamMention& m : MakeStream(world, seed, count, kTypoProb)) {
    LinkInput link;
    link.request.mention = std::move(m.surface);
    link.request.user = m.user;
    link.request.now = m.time;
    link.truth = m.truth;
    in.links.push_back(std::move(link));
  }

  // The open loop samples the stream evenly, in order, so it spans the
  // whole timeline (and every burst) whatever the stream's length.
  const double stride =
      static_cast<double>(in.links.size()) / static_cast<double>(in.open_links);
  const double gap_ns = 1e9 / kOpenRate;
  for (size_t i = 0; i < in.open_links; ++i) {
    OpRecord op;
    op.link = static_cast<uint32_t>(i * stride);
    op.due_ns = static_cast<int64_t>(i * gap_ns);
    in.open_ops.push_back(op);
  }
  if (spec.mutates()) {
    in.open_deltas =
        static_cast<size_t>(timing.open_s / spec.delta_interval_s);
    const auto closed_deltas =
        static_cast<size_t>(timing.closed_s / spec.delta_interval_s);
    // One unfollow, the open loop's last delta: its index rebuild stalls
    // the barrier long enough for write visibility to measure it, while
    // few enough links wait behind it to leave p50 to the linker.
    std::vector<graph::EdgeDelta::Op> ops(in.open_deltas + closed_deltas,
                                          graph::EdgeDelta::Op::kInsert);
    if (in.open_deltas > 0) {
      ops[in.open_deltas - 1] = graph::EdgeDelta::Op::kErase;
    }
    in.deltas = MakeDeltas(world.graph, seed, ops);
    for (size_t k = 0; k < in.open_deltas; ++k) {
      OpRecord op = DeltaOp(in.deltas[k]);
      op.due_ns = static_cast<int64_t>((k + 0.5) * spec.delta_interval_s * 1e9);
      in.open_ops.push_back(op);
    }
    std::stable_sort(in.open_ops.begin(), in.open_ops.end(),
                     [](const OpRecord& a, const OpRecord& b) {
                       return a.due_ns < b.due_ns;
                     });
  }
  return in;
}

ClosedLoopPlan MakeClosedPlan(const Inputs& inputs, size_t link_begin,
                              size_t link_end, size_t delta_begin,
                              size_t delta_end) {
  auto next_delta = std::make_shared<size_t>(delta_begin);
  const Inputs* in = &inputs;
  // Delta k goes out once (k + 0.5) shares of the links have been sent.
  const double links_per_delta =
      static_cast<double>(link_end - link_begin) /
      static_cast<double>(std::max<size_t>(1, delta_end - delta_begin));
  return [in, link_begin, link_end, delta_begin, delta_end, next_delta,
          links_per_delta](size_t sent, bool closing,
                           std::vector<OpRecord>* ops) {
    while (*next_delta < delta_end) {
      const size_t k = *next_delta - delta_begin;
      if (!closing && sent < (k + 0.5) * links_per_delta) break;
      ops->push_back(DeltaOp(in->deltas[(*next_delta)++]));
    }
    if (closing || link_begin + sent >= link_end) return false;
    OpRecord op;
    op.link = static_cast<uint32_t>(link_begin + sent);
    ops->push_back(op);
    return true;
  };
}

std::vector<OpRecord> FeedbackProbeOps(const World& world, uint64_t seed) {
  // kProbeStreams independent streams, each contributing an even sample
  // of its timeline to every burst.
  constexpr size_t kPerStream = kProbeBurst / kProbeStreams;
  std::vector<std::vector<StreamMention>> streams;
  for (size_t j = 0; j < kProbeStreams; ++j) {
    streams.push_back(MakeStream(world, DeriveSeed(seed, kFeedbackStream + j),
                                 kProbeBursts * kPerStream, 0));
  }
  std::vector<OpRecord> ops;
  for (size_t b = 0; b < kProbeBursts; ++b) {
    for (size_t i = 0; i < kPerStream; ++i) {
      for (const std::vector<StreamMention>& stream : streams) {
        const StreamMention& m = stream[i * kProbeBursts + b];
        OpRecord op;
        op.kind = OpKind::kFeedback;
        op.entity = m.truth;
        op.tweet.id = kProbeFeedbackIds + static_cast<kb::TweetId>(ops.size());
        op.tweet.user = m.user;
        op.tweet.time = m.time;
        op.due_ns = static_cast<int64_t>(static_cast<double>(b) *
                                         kProbeBurstGapS * 1e9);
        ops.push_back(op);
      }
    }
  }
  return ops;
}

std::function<void(const graph::EdgeDelta&)> RecordingHandler(
    reach::ReachMaintainer* maintainer, DeltaLog* log) {
  return [maintainer, log](const graph::EdgeDelta& delta) {
    const int64_t start = NowNs();
    log->results.push_back(maintainer->ApplyDelta(delta));
    log->apply_us.push_back((NowNs() - start) / 1e3);
  };
}

serve::ServeOptions ServeConfig() {
  serve::ServeOptions options;
  options.max_batch = 128;
  options.queue_capacity = 1 << 20;
  options.policy = serve::AdmissionPolicy::kShed;
  return options;
}

void CheckReport::FailOps(size_t count, std::string message) {
  if (count == 0) return;
  failed_ops += count;
  messages.push_back(std::to_string(count) + " x " + message);
}

void CheckReport::FailCheck(size_t count, std::string message) {
  if (count == 0) return;
  failed_checks += count;
  messages.push_back(std::to_string(count) + " x " + message);
}

void CheckAcksAndEpochs(const std::vector<const OpRecord*>& ops,
                        CheckReport* report) {
  size_t rejected = 0, ack_order = 0, epoch_order = 0;
  uint64_t last_ack = 0, last_epoch = 0;
  for (const OpRecord* op : ops) {
    if (op->kind == OpKind::kLink) {
      if (op->response.status != serve::ServeStatus::kOk) continue;
      if (op->response.epoch < last_epoch) ++epoch_order;
      last_epoch = std::max(last_epoch, op->response.epoch);
    } else if (op->ack == serve::kFeedbackRejected) {
      ++rejected;
    } else {
      if (op->ack < last_ack) ++ack_order;
      last_ack = std::max(last_ack, op->ack);
    }
  }
  report->FailOps(rejected, "write not acked");
  report->FailOps(ack_order, "write ack epoch went backwards");
  report->FailOps(epoch_order, "link response epoch went backwards");
}

void CheckAgainstReplay(const std::vector<const OpRecord*>& ops,
                        const std::vector<LinkInput>& links,
                        Reference* ref, const World& served, uint64_t seed,
                        CheckReport* report) {
  std::vector<const OpRecord*> reads, writes;
  for (const OpRecord* op : ops) {
    if (op->kind == OpKind::kFeedback &&
        op->ack != serve::kFeedbackRejected) {
      writes.push_back(op);
    } else if (op->kind == OpKind::kLink &&
               op->response.status == serve::ServeStatus::kOk) {
      reads.push_back(op);
    }
  }
  std::atomic<size_t> diverged{0};
  util::ThreadPool::Shared().ParallelFor(0, reads.size(), 16, [&](size_t i) {
    const OpRecord& op = *reads[i];
    const serve::LinkRequest& r = links[op.link].request;
    if (!BitIdentical(ref->linker->LinkMention(r.mention, r.user, r.now),
                      op.response.result)) {
      diverged.fetch_add(1, std::memory_order_relaxed);
    }
  });
  report->FailOps(diverged.load(), "response differs from sequential replay");

  // Barriers apply writes in submission order (CheckAcksAndEpochs holds
  // the acks to it).
  for (const OpRecord* op : writes) {
    ref->linker->ConfirmLink(op->entity, op->tweet);
  }
  ref->linker->WarmUp();

  // Same confirmations, same knowledge: probe both final states.
  Rng rng(DeriveSeed(seed, kProbeStream));
  size_t probe_diverged = 0;
  for (int i = 0; i < 400; ++i) {
    const serve::LinkRequest& r = links[rng.Uniform(links.size())].request;
    const auto user = static_cast<kb::UserId>(
        rng.Uniform(served.gen.social.graph.num_nodes()));
    if (!BitIdentical(served.linker->LinkMention(r.mention, user, r.now),
                      ref->linker->LinkMention(r.mention, user, r.now))) {
      ++probe_diverged;
    }
  }
  report->FailCheck(probe_diverged, "final-state probe differs from replay");
}

void CheckMaintainedIndex(const World& world, const DeltaLog& log,
                          size_t deltas_sent, uint64_t seed,
                          CheckReport* report) {
  size_t unapplied = deltas_sent > log.results.size()
                         ? deltas_sent - log.results.size()
                         : 0;
  for (const auto& r : log.results) {
    if (!r.applied) ++unapplied;
  }
  report->FailOps(unapplied, "delta not applied");

  const reach::TwoHopIndex fresh =
      reach::TwoHopIndex::Build(&world.graph, kMaxHops);
  const uint32_t n = world.graph.num_nodes();
  Rng rng(DeriveSeed(seed, kPairStream));
  size_t diverged = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.Uniform(n));
    const auto v = static_cast<graph::NodeId>(rng.Uniform(n));
    if (world.reach->ScoreOnly(u, v) != fresh.ScoreOnly(u, v)) ++diverged;
  }
  report->FailCheck(diverged,
                    "maintained ScoreOnly differs from a fresh build");
}

}  // namespace linkbench
