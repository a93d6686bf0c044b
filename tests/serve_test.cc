// Tests of the online linking service (src/serve/): micro-batching
// determinism (batched results bit-identical to one-at-a-time linking),
// admission-control policies (block / shed / deadline), epoch-barrier
// feedback ordering (including a threaded replay that runs under TSan in
// scripts/verify.sh), and clean shutdown with in-flight requests drained.
//
// Deterministic batch boundaries come from ServeOptions::start_paused +
// Pause/Resume/WaitIdle: requests admitted while paused dispatch as one
// micro-batch (up to max_batch) on Resume.

#include "serve/link_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/harness.h"
#include "graph/directed_graph.h"
#include "graph/mutation.h"
#include "reach/reach_maintainer.h"
#include "reach/transitive_closure.h"
#include "serve/request_queue.h"
#include "serve/types.h"
#include "util/metrics.h"

namespace mel {
namespace {

constexpr kb::Timestamp kNow = 90 * kb::kSecondsPerDay;

class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::HarnessOptions options;
    options.scale = 0.3;
    harness_ = new eval::Harness(options);
  }
  static void TearDownTestSuite() {
    delete harness_;
    harness_ = nullptr;
  }

  // A surface with at least two candidates, for disambiguation pressure.
  static std::string AmbiguousSurface() {
    return harness_->world().kb_world.ambiguous_surfaces.front();
  }

  static serve::LinkRequest Request(const std::string& mention,
                                    kb::UserId user = 1,
                                    kb::Timestamp now = kNow) {
    serve::LinkRequest request;
    request.mention = mention;
    request.user = user;
    request.now = now;
    return request;
  }

  // Test-split mention workload (surface, author, kNow).
  static std::vector<serve::LinkRequest> SplitRequests(size_t limit) {
    std::vector<serve::LinkRequest> requests;
    const auto& tweets = harness_->world().corpus.tweets;
    for (uint32_t idx : harness_->test_split().tweet_indices) {
      for (const auto& m : tweets[idx].mentions) {
        if (requests.size() >= limit) return requests;
        requests.push_back(Request(m.surface, tweets[idx].tweet.user));
      }
    }
    return requests;
  }

  static eval::Harness* harness_;
};

eval::Harness* ServeFixture::harness_ = nullptr;

void ExpectBitIdentical(const core::MentionLinkResult& expected,
                        const core::MentionLinkResult& actual) {
  ASSERT_EQ(expected.ranked.size(), actual.ranked.size());
  EXPECT_EQ(expected.probable_new_entity, actual.probable_new_entity);
  for (size_t i = 0; i < expected.ranked.size(); ++i) {
    EXPECT_EQ(expected.ranked[i].entity, actual.ranked[i].entity);
    // Bit-identical, not approximately-equal: the batch shares every
    // arithmetic path with the sequential call.
    EXPECT_EQ(expected.ranked[i].score, actual.ranked[i].score);
    EXPECT_EQ(expected.ranked[i].interest, actual.ranked[i].interest);
    EXPECT_EQ(expected.ranked[i].recency, actual.ranked[i].recency);
    EXPECT_EQ(expected.ranked[i].popularity, actual.ranked[i].popularity);
  }
}

// ------------------------------------------------ batching determinism

TEST_F(ServeFixture, BatchedResultsBitIdenticalToSequential) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  linker.WarmUp();
  std::vector<serve::LinkRequest> requests = SplitRequests(64);
  ASSERT_GE(requests.size(), 16u);

  // One-at-a-time reference (pure reads; order irrelevant).
  std::vector<core::MentionLinkResult> reference;
  reference.reserve(requests.size());
  for (const auto& r : requests) {
    reference.push_back(linker.LinkMention(r.mention, r.user, r.now));
  }

  serve::ServeOptions options;
  options.max_batch = 16;
  options.start_paused = true;
  serve::LinkService service(&linker, options);
  std::vector<std::future<serve::LinkResponse>> futures;
  for (const auto& r : requests) futures.push_back(service.Submit(r));
  service.Resume();
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::LinkResponse response = futures[i].get();
    ASSERT_EQ(response.status, serve::ServeStatus::kOk);
    EXPECT_EQ(response.epoch, 0u) << "no feedback -> no epoch bump";
    EXPECT_GE(response.batch_size, 1u);
    ExpectBitIdentical(reference[i], response.result);
  }
}

TEST_F(ServeFixture, PausedSubmissionsDispatchAsOneBatchWithOneEpoch) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  serve::ServeOptions options;
  options.max_batch = 32;
  options.start_paused = true;
  serve::LinkService service(&linker, options);

  std::vector<std::future<serve::LinkResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.Submit(Request(AmbiguousSurface())));
  }
  service.Resume();
  for (auto& f : futures) {
    serve::LinkResponse response = f.get();
    ASSERT_EQ(response.status, serve::ServeStatus::kOk);
    EXPECT_EQ(response.batch_size, 5u);
    EXPECT_EQ(response.epoch, 0u);
    EXPECT_GE(response.queue_wait_ns, 0);
  }
}

// --------------------------------------------- epoch-barrier feedback

TEST_F(ServeFixture, FeedbackAppliesBehindTheBatchThatPrecedesIt) {
  // Fresh, empty complemented KB: popularity is 0 for everyone until the
  // first confirmed link, which makes feedback visibility unambiguous.
  kb::ComplementedKnowledgebase ckb(&harness_->kb());
  core::EntityLinker linker(&harness_->kb(), &ckb,
                            &harness_->reachability(), &harness_->network(),
                            harness_->DefaultLinkerOptions());
  serve::ServeOptions options;
  options.start_paused = true;
  serve::LinkService service(&linker, options);

  const std::string surface = AmbiguousSurface();
  auto candidates = harness_->kb().Candidates(surface);
  ASSERT_FALSE(candidates.empty());
  const kb::EntityId confirmed = candidates.front().entity;

  // Batch A: pre-feedback state.
  auto a = service.Submit(Request(surface));
  service.Resume();
  service.WaitIdle();
  service.Pause();

  // While paused: a batch B and one feedback write are both pending.
  // The already-admitted batch must run BEFORE the barrier (no torn
  // epoch), so B still observes epoch 0.
  auto b = service.Submit(Request(surface));
  kb::Tweet tweet;
  tweet.id = 999001;
  tweet.user = 2;
  tweet.time = kNow - 60;
  auto ack = service.SubmitFeedback(confirmed, tweet);
  service.Resume();
  service.WaitIdle();

  // Batch C: post-barrier state.
  auto c = service.Submit(Request(surface));

  serve::LinkResponse ra = a.get();
  serve::LinkResponse rb = b.get();
  const uint64_t barrier_epoch = ack.get();
  serve::LinkResponse rc = c.get();

  ASSERT_EQ(ra.status, serve::ServeStatus::kOk);
  ASSERT_EQ(rb.status, serve::ServeStatus::kOk);
  ASSERT_EQ(rc.status, serve::ServeStatus::kOk);
  EXPECT_EQ(ra.epoch, 0u);
  EXPECT_EQ(rb.epoch, 0u) << "admitted before the barrier must not see it";
  EXPECT_EQ(barrier_epoch, 1u);
  EXPECT_EQ(rc.epoch, 1u);

  // Before the barrier nobody had popularity; after it, the confirmed
  // entity owns the whole popularity share.
  for (const auto& s : rb.result.ranked) EXPECT_EQ(s.popularity, 0.0);
  bool found = false;
  for (const auto& s : rc.result.ranked) {
    if (s.entity == confirmed) {
      EXPECT_EQ(s.popularity, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// The TSan-facing test: concurrent producers + feedback racing the
// serving loop. The epoch stamps let us replay the exact schedule
// sequentially afterwards; every response must be bit-identical to the
// replay — the serving-loop statement of the differential harness's
// epoch-freshness invariant (readers never observe a torn epoch).
TEST_F(ServeFixture, ConcurrentFeedbackEpochScheduleReplaysBitIdentically) {
  kb::ComplementedKnowledgebase serve_ckb(&harness_->kb());
  core::EntityLinker serve_linker(
      &harness_->kb(), &serve_ckb, &harness_->reachability(),
      &harness_->network(), harness_->DefaultLinkerOptions());
  serve::ServeOptions options;
  options.max_batch = 8;
  serve::LinkService service(&serve_linker, options);

  std::vector<serve::LinkRequest> requests = SplitRequests(60);
  ASSERT_GE(requests.size(), 20u);
  const size_t half = requests.size() / 2;

  struct Feedback {
    kb::EntityId entity;
    kb::Tweet tweet;
  };
  std::vector<Feedback> feedback;
  {
    const auto& tweets = harness_->world().corpus.tweets;
    kb::TweetId next_id = 5000000;
    for (uint32_t idx : harness_->test_split().tweet_indices) {
      for (const auto& m : tweets[idx].mentions) {
        if (feedback.size() >= 30) break;
        kb::Tweet t = tweets[idx].tweet;
        t.id = next_id++;
        t.time = kNow - 120 + static_cast<kb::Timestamp>(feedback.size());
        feedback.push_back({m.truth, t});
      }
    }
  }
  ASSERT_GE(feedback.size(), 10u);

  std::vector<std::future<serve::LinkResponse>> responses(requests.size());
  std::vector<std::future<uint64_t>> acks(feedback.size());
  std::thread producer_a([&] {
    for (size_t i = 0; i < half; ++i) {
      responses[i] = service.Submit(requests[i]);
    }
  });
  std::thread producer_b([&] {
    for (size_t i = half; i < requests.size(); ++i) {
      responses[i] = service.Submit(requests[i]);
    }
  });
  std::thread confirmer([&] {
    for (size_t i = 0; i < feedback.size(); ++i) {
      acks[i] = service.SubmitFeedback(feedback[i].entity,
                                       feedback[i].tweet);
      std::this_thread::yield();
    }
  });
  producer_a.join();
  producer_b.join();
  confirmer.join();
  service.WaitIdle();
  service.Stop();

  struct Linked {
    serve::LinkResponse response;
    size_t request = 0;
  };
  std::vector<Linked> linked;
  for (size_t i = 0; i < responses.size(); ++i) {
    serve::LinkResponse r = responses[i].get();
    ASSERT_EQ(r.status, serve::ServeStatus::kOk);
    linked.push_back({std::move(r), i});
  }
  std::vector<uint64_t> ack_epochs(acks.size());
  for (size_t i = 0; i < acks.size(); ++i) {
    ack_epochs[i] = acks[i].get();
    ASSERT_NE(ack_epochs[i], serve::kFeedbackRejected);
    if (i > 0) {
      EXPECT_GE(ack_epochs[i], ack_epochs[i - 1])
          << "FIFO feedback must ack in monotone epochs";
    }
  }

  // Sequential replay of the recorded epoch schedule on a second,
  // identically seeded linker: before serving epoch e, apply every
  // feedback write acked at an epoch <= e (FIFO order).
  std::stable_sort(linked.begin(), linked.end(),
                   [](const Linked& x, const Linked& y) {
                     return x.response.epoch < y.response.epoch;
                   });
  kb::ComplementedKnowledgebase replay_ckb(&harness_->kb());
  core::EntityLinker replay_linker(
      &harness_->kb(), &replay_ckb, &harness_->reachability(),
      &harness_->network(), harness_->DefaultLinkerOptions());
  size_t next_feedback = 0;
  for (const Linked& item : linked) {
    while (next_feedback < feedback.size() &&
           ack_epochs[next_feedback] <= item.response.epoch) {
      replay_linker.ConfirmLink(feedback[next_feedback].entity,
                                feedback[next_feedback].tweet);
      ++next_feedback;
    }
    const serve::LinkRequest& r = requests[item.request];
    core::MentionLinkResult expected =
        replay_linker.LinkMention(r.mention, r.user, r.now);
    ExpectBitIdentical(expected, item.response.result);
  }
}

// ----------------------------------------------------- admission control

TEST_F(ServeFixture, ShedPolicyRejectsWithOverloadedWhenFull) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  serve::ServeOptions options;
  options.queue_capacity = 4;
  options.policy = serve::AdmissionPolicy::kShed;
  options.start_paused = true;
  serve::LinkService service(&linker, options);

  auto& reg = metrics::Registry();
  const uint64_t shed_before = reg.GetCounter("serve.shed_total")->Value();

  std::vector<std::future<serve::LinkResponse>> accepted;
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(service.Submit(Request(AmbiguousSurface())));
  }
  auto overflow = service.Submit(Request(AmbiguousSurface()));
  // The shed future resolves without any dispatch happening.
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(overflow.get().status, serve::ServeStatus::kOverloaded);
  EXPECT_EQ(reg.GetCounter("serve.shed_total")->Value(), shed_before + 1);

  service.Resume();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, serve::ServeStatus::kOk);
  }
}

TEST_F(ServeFixture, BlockPolicyBackpressuresProducersUntilDrained) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  serve::ServeOptions options;
  options.queue_capacity = 2;
  options.policy = serve::AdmissionPolicy::kBlock;
  options.start_paused = true;
  serve::LinkService service(&linker, options);

  std::atomic<int> submitted{0};
  std::vector<std::future<serve::LinkResponse>> futures(6);
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      futures[i] = service.Submit(Request(AmbiguousSurface()));
      submitted.fetch_add(1);
    }
  });
  // The producer must stall at the capacity (2 queued + 1 blocked).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(submitted.load(), 2);
  service.Resume();
  producer.join();
  EXPECT_EQ(submitted.load(), 6);
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::ServeStatus::kOk);
  }
}

TEST_F(ServeFixture, DeadlineExpiryAtAdmissionAndAtDispatch) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  serve::ServeOptions options;
  options.queue_capacity = 2;
  options.policy = serve::AdmissionPolicy::kDeadline;
  options.start_paused = true;
  serve::LinkService service(&linker, options);

  // Two requests with a short budget fill the queue.
  serve::LinkRequest short_budget = Request(AmbiguousSurface());
  short_budget.deadline_ns = 20 * 1000 * 1000;  // 20 ms
  auto q1 = service.Submit(short_budget);
  auto q2 = service.Submit(short_budget);
  // The third cannot be admitted before its deadline: the producer blocks
  // (bounded by the budget), then fails with kDeadlineExpired.
  auto q3 = service.Submit(short_budget);
  EXPECT_EQ(q3.get().status, serve::ServeStatus::kDeadlineExpired);

  // By now the queued two are expired as well; dispatch drops them
  // without linking.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  service.Resume();
  EXPECT_EQ(q1.get().status, serve::ServeStatus::kDeadlineExpired);
  EXPECT_EQ(q2.get().status, serve::ServeStatus::kDeadlineExpired);

  // A generous budget is served normally under the same policy.
  serve::LinkRequest long_budget = Request(AmbiguousSurface());
  long_budget.deadline_ns = int64_t{10} * 1000 * 1000 * 1000;  // 10 s
  EXPECT_EQ(service.LinkSync(long_budget).status,
            serve::ServeStatus::kOk);
}

// ------------------------------------------------------------- shutdown

TEST_F(ServeFixture, StopDrainsEveryAdmittedRequestAndFeedback) {
  kb::ComplementedKnowledgebase ckb(&harness_->kb());
  core::EntityLinker linker(&harness_->kb(), &ckb,
                            &harness_->reachability(), &harness_->network(),
                            harness_->DefaultLinkerOptions());
  serve::ServeOptions options;
  options.max_batch = 4;
  serve::LinkService service(&linker, options);

  std::vector<std::future<serve::LinkResponse>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(service.Submit(Request(AmbiguousSurface())));
  }
  kb::Tweet tweet;
  tweet.id = 999100;
  tweet.user = 3;
  tweet.time = kNow - 30;
  auto candidates = harness_->kb().Candidates(AmbiguousSurface());
  auto ack = service.SubmitFeedback(candidates.front().entity, tweet);

  service.Stop();  // must drain, not drop

  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::ServeStatus::kOk);
  }
  EXPECT_NE(ack.get(), serve::kFeedbackRejected);

  // Post-stop submissions are rejected immediately.
  auto late = service.Submit(Request(AmbiguousSurface()));
  EXPECT_EQ(late.get().status, serve::ServeStatus::kShutdown);
  auto late_feedback =
      service.SubmitFeedback(candidates.front().entity, tweet);
  EXPECT_EQ(late_feedback.get(), serve::kFeedbackRejected);
}

// ------------------------------------------------- malformed feedback

// Feedback naming an id outside the KB or the social graph resolves to
// kFeedbackRejected at admission: no barrier runs, the epoch stays put,
// and the service keeps serving.
void ExpectFeedbackRejectedAndStillServing(serve::LinkService& service,
                                           kb::EntityId entity,
                                           kb::UserId user,
                                           const std::string& mention) {
  kb::Tweet tweet;
  tweet.id = 999200;
  tweet.user = user;
  tweet.time = kNow - 30;
  EXPECT_EQ(service.SubmitFeedback(entity, tweet).get(),
            serve::kFeedbackRejected);
  EXPECT_EQ(service.epoch(), 0u);
  serve::LinkRequest request;
  request.mention = mention;
  request.user = 1;
  request.now = kNow;
  const serve::LinkResponse response = service.LinkSync(request);
  EXPECT_EQ(response.status, serve::ServeStatus::kOk);
  EXPECT_EQ(response.epoch, 0u);
  EXPECT_EQ(service.epoch(), 0u);
}

TEST_F(ServeFixture, FeedbackWithUnknownEntityRejected) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  serve::LinkService service(&linker, {});
  ExpectFeedbackRejectedAndStillServing(
      service, harness_->kb().num_entities(), /*user=*/0, AmbiguousSurface());
  ExpectFeedbackRejectedAndStillServing(service, kb::kInvalidEntity,
                                        /*user=*/0, AmbiguousSurface());
}

TEST_F(ServeFixture, FeedbackWithUnknownUserRejected) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  serve::LinkService service(&linker, {});
  const kb::EntityId entity =
      harness_->kb().Candidates(AmbiguousSurface()).front().entity;
  ExpectFeedbackRejectedAndStillServing(
      service, entity, harness_->world().social.graph.num_nodes(),
      AmbiguousSurface());
  ExpectFeedbackRejectedAndStillServing(service, entity,
                                        kb::UserId{99999999u},
                                        AmbiguousSurface());
}

// A link request whose author is outside the social graph resolves to
// kInvalidRequest at admission — it would otherwise index the
// reachability walk's per-user tables out of bounds — and the service
// keeps serving valid requests.
TEST_F(ServeFixture, LinkWithUnknownUserRejected) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  serve::LinkService service(&linker, {});
  metrics::Counter* rejected = metrics::Registry().GetCounter(
      "serve.invalid_rejected_total");
  const uint64_t rejected_before = rejected->Value();
  const kb::UserId num_users = harness_->world().social.graph.num_nodes();
  for (kb::UserId user :
       {num_users, kb::UserId{99999999u}, kb::kInvalidUser}) {
    const serve::LinkResponse response =
        service.LinkSync(Request(AmbiguousSurface(), user));
    EXPECT_EQ(response.status, serve::ServeStatus::kInvalidRequest)
        << "user " << user;
    EXPECT_TRUE(response.result.ranked.empty());
  }
  EXPECT_STREQ(serve::ServeStatusName(serve::ServeStatus::kInvalidRequest),
               "invalid_request");
  EXPECT_EQ(rejected->Value() - rejected_before, 3u);
  const serve::LinkResponse ok =
      service.LinkSync(Request(AmbiguousSurface(), num_users - 1));
  EXPECT_EQ(ok.status, serve::ServeStatus::kOk);
  EXPECT_EQ(service.epoch(), 0u);
}

TEST_F(ServeFixture, DestructorStopsCleanlyWithQueuedWork) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  std::vector<std::future<serve::LinkResponse>> futures;
  {
    serve::ServeOptions options;
    options.max_batch = 8;
    serve::LinkService service(&linker, options);
    for (int i = 0; i < 20; ++i) {
      futures.push_back(service.Submit(Request(AmbiguousSurface())));
    }
  }  // ~LinkService drains
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::ServeStatus::kOk);
  }
}

// ------------------------------------------------------------- metrics

TEST_F(ServeFixture, ServeMetricsAreExported) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  auto& reg = metrics::Registry();
  const uint64_t requests_before =
      reg.GetCounter("serve.requests_total")->Value();
  const uint64_t batches_before =
      reg.GetCounter("serve.batches_total")->Value();

  serve::ServeOptions options;
  options.max_batch = 8;
  options.start_paused = true;
  serve::LinkService service(&linker, options);
  std::vector<std::future<serve::LinkResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit(Request(AmbiguousSurface())));
  }
  service.Resume();
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, serve::ServeStatus::kOk);
  }
  service.Stop();

  EXPECT_EQ(reg.GetCounter("serve.requests_total")->Value(),
            requests_before + 8);
  EXPECT_GE(reg.GetCounter("serve.batches_total")->Value(),
            batches_before + 1);
  auto snapshot = reg.Snapshot();
  bool found_latency = false;
  bool found_batch_size = false;
  for (const auto& [name, h] : snapshot.histograms) {
    if (name == "serve.link_latency_ns" && h.count > 0) {
      found_latency = true;
    }
    if (name == "serve.batch_size" && h.count > 0) found_batch_size = true;
  }
  EXPECT_TRUE(found_latency);
  EXPECT_TRUE(found_batch_size);
  EXPECT_GT(reg.GetGauge("serve.qps")->Value(), 0);
}

TEST_F(ServeFixture, WaitIdleReturnsImmediatelyWhenIdle) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  serve::LinkService service(&linker, {});
  service.WaitIdle();  // no admitted work: must not block
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.LinkSync(Request(AmbiguousSurface())).status,
            serve::ServeStatus::kOk);
}

// ------------------------------------------- graph mutations at the barrier

TEST_F(ServeFixture, MutationsApplyAtBarrierWithOneEpochBumpAndPatchIndexes) {
  graph::DirectedGraph live = harness_->world().social.graph;
  const uint32_t max_hops = harness_->options().max_hops;
  auto tc = reach::TransitiveClosureIndex::Build(
      &live, max_hops,
      reach::TransitiveClosureIndex::Construction::kIncremental);
  reach::ReachMaintainer maintainer(&live, max_hops);
  maintainer.Register(&tc);

  kb::ComplementedKnowledgebase ckb(&harness_->kb());
  core::EntityLinker linker(&harness_->kb(), &ckb, &tc,
                            &harness_->network(),
                            harness_->DefaultLinkerOptions());

  // One existing edge to erase and one missing edge to insert.
  graph::EdgeDelta erase_delta, insert_delta;
  erase_delta.op = graph::EdgeDelta::Op::kErase;
  for (graph::NodeId u = 0; u < live.num_nodes(); ++u) {
    if (live.OutDegree(u) > 0) {
      erase_delta.u = u;
      erase_delta.v = live.OutNeighbors(u)[0];
      break;
    }
  }
  insert_delta.op = graph::EdgeDelta::Op::kInsert;
  insert_delta.u = erase_delta.u;
  for (graph::NodeId v = 0; v < live.num_nodes(); ++v) {
    if (v != insert_delta.u && !live.HasEdge(insert_delta.u, v)) {
      insert_delta.v = v;
      break;
    }
  }

  serve::ServeOptions options;
  options.start_paused = true;
  options.mutation_handler = [&](const graph::EdgeDelta& delta) {
    EXPECT_TRUE(maintainer.ApplyDelta(delta).applied);
  };
  serve::LinkService service(&linker, options);

  // A batch, a feedback write, and two mutations, all admitted while
  // paused: the batch links against the PRE-mutation graph (epoch 0),
  // then one barrier applies every write with a single epoch bump.
  auto response_future = service.Submit(Request(AmbiguousSurface()));
  kb::Tweet tweet;
  tweet.id = 999200;
  tweet.user = 3;
  tweet.time = kNow - 30;
  auto candidates = harness_->kb().Candidates(AmbiguousSurface());
  auto feedback_ack =
      service.SubmitFeedback(candidates.front().entity, tweet);
  auto erase_ack = service.SubmitMutation(erase_delta);
  auto insert_ack = service.SubmitMutation(insert_delta);

  service.Resume();
  serve::LinkResponse response = response_future.get();
  ASSERT_EQ(response.status, serve::ServeStatus::kOk);
  EXPECT_EQ(response.epoch, 0u);
  EXPECT_EQ(feedback_ack.get(), 1u);
  EXPECT_EQ(erase_ack.get(), 1u);
  EXPECT_EQ(insert_ack.get(), 1u);  // same barrier: one bump for all
  service.WaitIdle();
  EXPECT_EQ(service.epoch(), 1u);

  // The live graph carries both deltas and the patched index is exactly
  // the index a from-scratch build on the mutated graph produces.
  EXPECT_FALSE(live.HasEdge(erase_delta.u, erase_delta.v));
  EXPECT_TRUE(live.HasEdge(insert_delta.u, insert_delta.v));
  auto fresh = reach::TransitiveClosureIndex::Build(
      &live, max_hops,
      reach::TransitiveClosureIndex::Construction::kIncremental);
  for (graph::NodeId u = 0; u < live.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < live.num_nodes(); ++v) {
      ASSERT_EQ(tc.Distance(u, v), fresh.Distance(u, v)) << u << " " << v;
      ASSERT_EQ(tc.ScoreOnly(u, v), fresh.ScoreOnly(u, v)) << u << " " << v;
    }
  }

  // A request linked after the barrier observes the new epoch.
  serve::LinkResponse after = service.LinkSync(Request(AmbiguousSurface()));
  ASSERT_EQ(after.status, serve::ServeStatus::kOk);
  EXPECT_EQ(after.epoch, 1u);
}

TEST_F(ServeFixture, MutationsRejectedWithoutHandlerAndAfterStop) {
  core::EntityLinker linker =
      harness_->MakeLinker(harness_->DefaultLinkerOptions());
  graph::EdgeDelta delta;
  delta.u = 0;
  delta.v = 1;

  {
    serve::LinkService service(&linker, {});  // no mutation_handler
    EXPECT_EQ(service.SubmitMutation(delta).get(),
              serve::kMutationRejected);
    EXPECT_EQ(service.epoch(), 0u);
  }

  serve::ServeOptions options;
  options.mutation_handler = [](const graph::EdgeDelta&) {};
  serve::LinkService service(&linker, options);
  service.Stop();
  EXPECT_EQ(service.SubmitMutation(delta).get(), serve::kMutationRejected);
}

}  // namespace
}  // namespace mel
