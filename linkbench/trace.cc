#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <span>

#include "core/entity_linker.h"
#include "reach/reach_maintainer.h"
#include "recency/recency_propagator.h"
#include "recency/sliding_window.h"
#include "social/influence.h"
#include "social/influential_index.h"
#include "social/user_interest.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace linkbench {

using namespace mel;

namespace {

// Links replayed one at a time through the stage calls.
constexpr size_t kReplayLinks = 5000;
// Links of observed batches replayed through ParallelFor.
constexpr size_t kBatchReplayLinks = 4000;
// Closed-loop slices alternating untraced / traced.
constexpr size_t kTracedSlices = 4;
// Write probes for the layers a workload's own stream does not write.
constexpr size_t kConfirmProbes = 64;
constexpr size_t kDeltaProbes = 8;  // seven follows, then one unfollow
constexpr kb::TweetId kConfirmProbeIds = 40'000'000;
constexpr uint64_t kDeltaProbeSeedSalt = 0x9e3779b97f4a7c15ULL;

// The linker's stage objects, built from the public classes with the
// linker's own options, so each stage call can be timed on its own. The
// candidate generator is the linker's (a public accessor).
struct StageMirror {
  const core::EntityLinker& linker;
  const kb::Knowledgebase& kb;
  social::InfluenceEstimator influence;
  social::UserInterestScorer interest;
  recency::SlidingWindowRecency window;
  recency::RecencyPropagator propagator;
  social::InfluentialUserIndex influential;

  StageMirror(const core::EntityLinker& l, kb::ComplementedKnowledgebase* ckb,
              const reach::WeightedReachability* reach,
              const recency::PropagationNetwork* network)
      : linker(l),
        kb(ckb->base()),
        influence(ckb, l.options().influence_method),
        interest(&influence, reach, l.options().top_k_influential),
        window(ckb, l.options().tau, l.options().theta1),
        propagator(network, &window, l.options().propagator),
        influential(ckb, l.options().influence_method,
                    l.options().top_k_influential) {
    influential.PrecomputeAll();
  }
};

// Accumulated span durations of the sequential replay (ns unless noted).
struct StageSpans {
  std::vector<double> link_mention_us;
  double link_mention_ns = 0;
  double generate_ns = 0;
  double recency_ns = 0;
  double interest_ns = 0;
  double score_only_ns = 0;
  size_t mentions = 0;
  size_t fuzzy = 0;
  size_t candidates = 0;
  size_t pairs = 0;
  size_t mismatched = 0;  // stage calls disagreed with LinkMention
  double sink = 0;        // keeps the timed ScoreOnly results live
};

// What the mirrored stages computed for one mention.
struct StageScores {
  std::vector<kb::EntityId> entities;
  std::vector<double> interest;  // normalized over the candidates
  std::vector<double> recency;
};

// Times the stage calls LinkMention makes for one mention.
StageScores TimeStages(StageMirror* m, const reach::WeightedReachability& reach,
                       const serve::LinkRequest& r, StageSpans* spans) {
  const core::LinkerOptions& options = m->linker.options();
  StageScores scores;
  int64_t t = NowNs();
  const std::vector<kb::Candidate> candidates =
      m->linker.candidate_generator().Generate(r.mention);
  spans->generate_ns += NowNs() - t;
  ++spans->mentions;
  const uint32_t surface = m->kb.SurfaceId(r.mention);
  if (surface == kb::Knowledgebase::kInvalidSurface) ++spans->fuzzy;
  spans->candidates += candidates.size();
  if (candidates.empty()) return scores;
  for (const kb::Candidate& c : candidates) scores.entities.push_back(c.entity);
  const std::vector<kb::EntityId>& entities = scores.entities;

  t = NowNs();
  scores.recency = m->propagator.CandidateScores(
      entities, r.now, options.enable_recency_propagation);
  spans->recency_ns += NowNs() - t;

  scores.interest.assign(entities.size(), 0.0);
  double total = 0;
  for (size_t i = 0; i < entities.size(); ++i) {
    t = NowNs();
    std::vector<social::InfluentialUser> online;
    std::span<const social::InfluentialUser> users;
    if (options.use_influential_index &&
        surface != kb::Knowledgebase::kInvalidSurface) {
      users = m->influential.Get(surface, entities[i]);
    } else {
      online = m->influence.TopInfluential(entities[i], entities,
                                           options.top_k_influential);
      users = online;
    }
    scores.interest[i] = m->interest.InterestOver(r.user, users);
    spans->interest_ns += NowNs() - t;
    total += scores.interest[i];

    t = NowNs();
    for (const social::InfluentialUser& v : users) {
      spans->sink += reach.ScoreOnly(r.user, v.user);
    }
    spans->score_only_ns += NowNs() - t;
    spans->pairs += users.size();
  }
  if (total > 0) {
    for (double& v : scores.interest) v /= total;
  }
  return scores;
}

// True when the mirrored stages gave every ranked entity the interest and
// recency LinkMention reported: the timed calls are the linker's calls.
bool Agrees(const StageScores& scores, const core::MentionLinkResult& linked) {
  for (const core::ScoredEntity& s : linked.ranked) {
    const auto it =
        std::find(scores.entities.begin(), scores.entities.end(), s.entity);
    if (it == scores.entities.end()) return false;
    const size_t i = static_cast<size_t>(it - scores.entities.begin());
    if (scores.interest[i] != s.interest || scores.recency[i] != s.recency) {
      return false;
    }
  }
  return true;
}

double RebuildShare(
    const std::vector<reach::ReachMaintainer::ApplyResult>& rs) {
  size_t rebuilt = 0;
  for (const auto& r : rs) {
    if (std::find(r.results.begin(), r.results.end(),
                  reach::MutationResult::kRebuilt) != r.results.end()) {
      ++rebuilt;
    }
  }
  return rs.empty() ? 0.0 : static_cast<double>(rebuilt) / rs.size();
}

}  // namespace

RunResult TracedRun(const WorkloadSpec& spec, uint64_t seed,
                    const Timing& timing) {
  RunResult out;
  metrics::Registry().Reset();
  ServePlan plan;
  plan.closed_slices = kTracedSlices;
  plan.traced = true;
  Session s = Serve(BuildWorld(), spec, seed, timing, plan);
  const uint64_t cache_hits =
      metrics::Registry().GetCounter("recency.cache.hits_total")->Value();
  const uint64_t cache_misses =
      metrics::Registry().GetCounter("recency.cache.misses_total")->Value();
  out.report = Check(&s, seed);
  out.attempted = s.AllOps().size();

  // ---- serve: spans of the traced open loop -------------------------
  std::vector<double> queue_wait, service, batch, submit, late, latency;
  uint64_t epochs = 0;
  for (const OpRecord& op : s.open) {
    submit.push_back((op.submitted_ns - op.send_ns) / 1e3);
    late.push_back((op.send_ns - op.due_ns) / 1e3);
    if (op.kind != OpKind::kLink ||
        op.response.status != serve::ServeStatus::kOk) {
      continue;
    }
    const double total_us = (op.done_ns - op.due_ns) / 1e3;
    const double wait_us = op.response.queue_wait_ns / 1e3;
    latency.push_back(total_us);
    queue_wait.push_back(wait_us);
    service.push_back(total_us - wait_us);
    batch.push_back(op.response.batch_size);
    epochs = std::max(epochs, op.response.epoch);
  }
  double peak[2] = {0, 0}, peak_links[2] = {0, 0};
  for (size_t k = 0; k < s.closed.size(); ++k) {
    peak_links[k % 2] += s.closed[k].links;
    peak[k % 2] += s.closed[k].seconds;
  }
  const double untraced_peak = peak_links[0] / peak[0];
  const double traced_peak = peak_links[1] / peak[1];

  // ---- core / text / social / reach / recency: sequential replay of
  // the open loop's first links. Even links run LinkMention first, odd
  // ones the stage calls first, so neither side always finds the caches
  // warm.
  metrics::Registry().Reset();
  metrics::SetEnabled(true);
  Reference ref = MakeReference(*s.world, *s.snapshot);
  StageMirror mirror(*ref.linker, ref.ckb.get(), s.world->reach.get(),
                     s.world->network.get());
  StageSpans spans;
  for (const OpRecord& op : s.open) {
    if (spans.link_mention_us.size() == kReplayLinks) break;
    if (op.kind != OpKind::kLink ||
        op.response.status != serve::ServeStatus::kOk) {
      continue;
    }
    const serve::LinkRequest& r = s.inputs.links[op.link].request;
    core::MentionLinkResult linked;
    auto link_mention = [&] {
      const int64_t t = NowNs();
      linked = ref.linker->LinkMention(r.mention, r.user, r.now);
      const int64_t ns = NowNs() - t;
      spans.link_mention_ns += ns;
      spans.link_mention_us.push_back(ns / 1e3);
    };
    StageScores scores;
    if (spans.link_mention_us.size() % 2 == 0) {
      link_mention();
      scores = TimeStages(&mirror, *s.world->reach, r, &spans);
    } else {
      scores = TimeStages(&mirror, *s.world->reach, r, &spans);
      link_mention();
    }
    if (!Agrees(scores, linked)) ++spans.mismatched;
  }
  const double labels_scanned =
      metrics::Registry()
          .GetHistogram("reach.twohop.labels_scanned")
          ->GetSnapshot()
          .Mean();
  metrics::SetEnabled(false);

  // ---- kb / core.warmup: no workload's stream confirms links, so a
  // probe of confirmations, each followed by WarmUp as at a barrier.
  std::vector<double> confirm_us, warmup_us;
  for (size_t i = 0; i < kConfirmProbes; ++i) {
    const LinkInput& link = s.inputs.links[i];
    kb::Tweet tweet;
    tweet.id = kConfirmProbeIds + static_cast<kb::TweetId>(i);
    tweet.user = link.request.user;
    tweet.time = link.request.now;
    int64_t t = NowNs();
    ref.linker->ConfirmLink(link.truth, tweet);
    confirm_us.push_back((NowNs() - t) / 1e3);
    t = NowNs();
    ref.linker->WarmUp();
    warmup_us.push_back((NowNs() - t) / 1e3);
  }
  std::vector<reach::ReachMaintainer::ApplyResult> applied =
      s.delta_log.results;
  std::vector<double> apply_us = s.delta_log.apply_us;
  if (!spec.mutates()) {
    reach::ReachMaintainer maintainer(&s.world->graph, kMaxHops);
    maintainer.Register(s.world->reach.get());
    std::vector<graph::EdgeDelta::Op> ops(kDeltaProbes,
                                          graph::EdgeDelta::Op::kInsert);
    ops.back() = graph::EdgeDelta::Op::kErase;
    for (const graph::EdgeDelta& d :
         MakeDeltas(s.world->graph, seed ^ kDeltaProbeSeedSalt, ops)) {
      const int64_t t = NowNs();
      applied.push_back(maintainer.ApplyDelta(d));
      apply_us.push_back((NowNs() - t) / 1e3);
    }
  }

  // ---- util: the observed batch compositions through ParallelFor ----
  // Consecutive kOk responses with one epoch and batch size n rode in
  // one batch (the queue dispatches FIFO).
  util::ThreadPool& pool = util::ThreadPool::Shared();
  std::vector<const OpRecord*> links;
  for (const OpRecord& op : s.open) {
    if (op.kind == OpKind::kLink &&
        op.response.status == serve::ServeStatus::kOk) {
      links.push_back(&op);
    }
  }
  double busy_ns = 0, capacity_ns = 0;
  size_t replayed = 0;
  for (size_t i = 0; i < links.size() && replayed < kBatchReplayLinks;) {
    size_t n = 1;
    while (n < links[i]->response.batch_size && i + n < links.size() &&
           links[i + n]->response.epoch == links[i]->response.epoch) {
      ++n;
    }
    std::vector<double> item_ns(n);
    const int64_t t = NowNs();
    pool.ParallelFor(0, n, /*grain=*/1, [&](size_t j) {
      const serve::LinkRequest& r = s.inputs.links[links[i + j]->link].request;
      const int64_t start = NowNs();
      ref.linker->LinkMention(r.mention, r.user, r.now);
      item_ns[j] = NowNs() - start;
    });
    const double wall = NowNs() - t;
    for (double v : item_ns) busy_ns += v;
    capacity_ns += wall * std::min<size_t>(n, pool.num_threads());
    replayed += n;
    i += n;
  }

  // ---- budgets -------------------------------------------------------
  const double mentions = std::max<size_t>(spans.mentions, 1);
  const double self_ns = spans.link_mention_ns - spans.generate_ns -
                         spans.recency_ns - spans.interest_ns;
  const double mean_link_us = spans.link_mention_ns / mentions / 1e3;
  const double mean_latency = Mean(latency);
  const double unexplained = mean_latency - Mean(queue_wait) -
                             Mean(LatenessUs(s.open)) - mean_link_us;

  // The stage metrics describe LinkMention only while the stage calls
  // reproduce its answers; a disagreement (say, after the linker fuses or
  // reorders its stages) invalidates them without making the served
  // answers wrong, so it is reported here and not counted as a failure.
  out.details = {
      {"trace.replayed_links", static_cast<double>(spans.mentions), "count"},
      {"trace.stage_mismatches", static_cast<double>(spans.mismatched),
       "count"},
  };
  if (spans.mismatched > 0) {
    std::printf(
        "WARNING: stage metrics invalid: the stage calls disagreed with "
        "LinkMention on %zu of %zu replayed links\n",
        spans.mismatched, spans.mentions);
  }

  out.metrics = {
      {"serve.queue_wait_us.p50", Percentile(queue_wait, 50), "us"},
      {"serve.queue_wait_us.p99", Percentile(queue_wait, 99), "us"},
      {"serve.service_us.p50", Percentile(service, 50), "us"},
      {"serve.service_us.p99", Percentile(service, 99), "us"},
      {"serve.batch_size.mean", Mean(batch), "count"},
      {"serve.submit_us.p99", Percentile(submit, 99), "us"},
      {"serve.epochs", static_cast<double>(epochs), "count"},
      {"core.link_mention_us.p50", Percentile(spans.link_mention_us, 50),
       "us"},
      {"core.link_mention_us.p99", Percentile(spans.link_mention_us, 99),
       "us"},
      {"core.self_us", self_ns / mentions / 1e3, "us"},
      {"core.warmup_us.p50", Percentile(warmup_us, 50), "us"},
      {"core.warmup_us.p99", Percentile(warmup_us, 99), "us"},
      {"kb.confirm_link_us", Mean(confirm_us), "us"},
      {"text.generate_us", spans.generate_ns / mentions / 1e3, "us"},
      {"text.candidates_per_mention", spans.candidates / mentions, "count"},
      {"text.fuzzy_share", spans.fuzzy / mentions, "ratio"},
      {"social.interest_us",
       spans.interest_ns / std::max<size_t>(spans.candidates, 1) / 1e3, "us"},
      {"reach.score_only_ns",
       spans.score_only_ns / std::max<size_t>(spans.pairs, 1), "ns"},
      {"reach.labels_scanned", labels_scanned, "count"},
      {"reach.apply_delta_us.p50", Percentile(apply_us, 50), "us"},
      {"reach.apply_delta_us.p99", Percentile(apply_us, 99), "us"},
      {"reach.rebuild_share", RebuildShare(applied), "ratio"},
      {"recency.candidate_scores_us", spans.recency_ns / mentions / 1e3, "us"},
      {"recency.cache_hit_ratio",
       cache_hits + cache_misses == 0
           ? 0.0
           : static_cast<double>(cache_hits) / (cache_hits + cache_misses),
       "ratio"},
      {"util.batch_efficiency",
       capacity_ns == 0 ? 0.0 : busy_ns / capacity_ns, "ratio"},
      {"loadgen.late_p99_us", Percentile(late, 99), "us"},
      {"trace.peak_links_per_s", traced_peak, "links/s"},
      {"trace.untraced_peak_links_per_s", untraced_peak, "links/s"},
      {"trace.overhead_ratio", traced_peak / untraced_peak, "ratio"},
      {"budget.core_self_share",
       spans.link_mention_ns == 0 ? 0.0 : self_ns / spans.link_mention_ns,
       "ratio"},
      {"budget.serve_unexplained_share",
       mean_latency == 0 ? 0.0 : unexplained / mean_latency, "ratio"},
  };
  return out;
}

}  // namespace linkbench
