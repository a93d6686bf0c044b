#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "mel.h"

#include "core/parallel_linker.h"
#include "core/personalized_search.h"
#include "eval/harness.h"
#include "eval/runner.h"
#include "eval/weight_learner.h"
#include "gen/workload.h"
#include "social/influential_index.h"
#include "util/metrics.h"
#include "util/random.h"

namespace mel {
namespace {

class ExtensionsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::HarnessOptions options;
    options.scale = 0.5;
    harness_ = new eval::Harness(options);
  }
  static void TearDownTestSuite() {
    delete harness_;
    harness_ = nullptr;
  }
  static eval::Harness* harness_;
};

eval::Harness* ExtensionsFixture::harness_ = nullptr;

// ------------------------------------------------- influential index

TEST_F(ExtensionsFixture, InfluentialIndexMatchesOnlineComputation) {
  social::InfluenceEstimator online(&harness_->ckb(),
                                    social::InfluenceMethod::kEntropy);
  social::InfluentialUserIndex index(&harness_->ckb(),
                                     social::InfluenceMethod::kEntropy, 5);
  const auto& kb = harness_->kb();
  for (uint32_t sid = 0; sid < std::min<size_t>(kb.surfaces().size(), 50);
       ++sid) {
    auto candidates = kb.CandidatesBySurfaceId(sid);
    std::vector<kb::EntityId> entities;
    for (const auto& c : candidates) entities.push_back(c.entity);
    for (kb::EntityId e : entities) {
      auto expected = online.TopInfluential(e, entities, 5);
      const auto& cached = index.Get(sid, e);
      ASSERT_EQ(expected.size(), cached.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].user, cached[i].user);
        EXPECT_DOUBLE_EQ(expected[i].influence, cached[i].influence);
      }
    }
  }
}

TEST_F(ExtensionsFixture, InfluentialIndexInvalidationRefreshes) {
  kb::ComplementedKnowledgebase fresh(&harness_->kb());
  social::InfluentialUserIndex index(&fresh,
                                     social::InfluenceMethod::kEntropy, 3);
  // An ambiguous surface whose candidates start with empty communities.
  uint32_t sid = harness_->kb().SurfaceId(
      harness_->world().kb_world.ambiguous_surfaces[0]);
  ASSERT_NE(sid, kb::Knowledgebase::kInvalidSurface);
  auto candidates = harness_->kb().CandidatesBySurfaceId(sid);
  ASSERT_GE(candidates.size(), 2u);
  kb::EntityId entity = candidates[0].entity;
  EXPECT_TRUE(index.Get(sid, entity).empty());

  // A new link makes user 7 influential; without invalidation the cache
  // would still say "empty".
  fresh.AddLink(entity, kb::Posting{1, 7, 100});
  index.Invalidate(entity);
  auto updated = index.Get(sid, entity);
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_EQ(updated[0].user, 7u);
}

TEST_F(ExtensionsFixture, PrecomputeAllFillsEverySurface) {
  social::InfluentialUserIndex index(&harness_->ckb(),
                                     social::InfluenceMethod::kTfIdf, 2);
  EXPECT_EQ(index.CachedEntries(), 0u);
  index.PrecomputeAll();
  EXPECT_GT(index.CachedEntries(), harness_->kb().surfaces().size());
}

uint64_t IndexMisses() {
  return metrics::Registry()
      .GetCounter("social.influential_index.misses_total")
      ->Value();
}

TEST_F(ExtensionsFixture, PrecomputeAllRefillsOnlyInvalidatedSurfaces) {
  kb::ComplementedKnowledgebase ckb = harness_->ckb();
  const kb::Knowledgebase& kb = harness_->kb();
  social::InfluentialUserIndex index(&ckb, social::InfluenceMethod::kEntropy,
                                     5);
  index.PrecomputeAll();

  // A seeded burst of links, half of them older than the lists they join.
  Rng rng(23);
  const uint32_t users = harness_->reachability().num_nodes();
  std::vector<bool> touched(kb.surfaces().size(), false);
  for (kb::TweetId t = 0; t < 200; ++t) {
    const auto sid = static_cast<uint32_t>(rng.Uniform(kb.surfaces().size()));
    const auto candidates = kb.CandidatesBySurfaceId(sid);
    const kb::EntityId e = candidates[rng.Uniform(candidates.size())].entity;
    const auto time = static_cast<kb::Timestamp>(rng.Uniform(2)
                                                     ? rng.Uniform(1000)
                                                     : 1'000'000'000 + t);
    ckb.AddLink(e, kb::Posting{50'000'000 + t,
                               static_cast<kb::UserId>(rng.Uniform(users)),
                               time});
    index.Invalidate(e);
    for (uint32_t s = 0; s < kb.surfaces().size(); ++s) {
      for (const kb::Candidate& c : kb.CandidatesBySurfaceId(s)) {
        if (c.entity == e) touched[s] = true;
      }
    }
  }
  const auto refills = static_cast<uint64_t>(
      std::count(touched.begin(), touched.end(), true));

  uint64_t before = IndexMisses();
  index.PrecomputeAll();
  EXPECT_EQ(IndexMisses() - before, refills);
  before = IndexMisses();
  index.PrecomputeAll();  // no writes since: nothing to refill
  EXPECT_EQ(IndexMisses(), before);

  social::InfluentialUserIndex fresh(&ckb, social::InfluenceMethod::kEntropy,
                                     5);
  for (uint32_t sid = 0; sid < kb.surfaces().size(); ++sid) {
    for (const kb::Candidate& c : kb.CandidatesBySurfaceId(sid)) {
      const auto& got = index.Get(sid, c.entity);
      const auto& want = fresh.Get(sid, c.entity);
      ASSERT_EQ(got.size(), want.size()) << "surface " << sid;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].user, want[i].user);
        EXPECT_EQ(got[i].influence, want[i].influence);
      }
    }
  }
}

TEST_F(ExtensionsFixture, WarmUpAfterFeedbackMatchesFreshLinker) {
  kb::ComplementedKnowledgebase ckb = harness_->ckb();
  const kb::Knowledgebase& kb = harness_->kb();
  const core::LinkerOptions options = harness_->DefaultLinkerOptions();
  core::EntityLinker linker(&kb, &ckb, &harness_->reachability(),
                            &harness_->network(), options);
  linker.WarmUp();
  const uint64_t before_burst = IndexMisses();

  Rng rng(29);
  const uint32_t users = harness_->reachability().num_nodes();
  for (kb::TweetId t = 0; t < 200; ++t) {
    const auto sid = static_cast<uint32_t>(rng.Uniform(kb.surfaces().size()));
    const auto candidates = kb.CandidatesBySurfaceId(sid);
    kb::Tweet tweet;
    tweet.id = 60'000'000 + t;
    tweet.user = static_cast<kb::UserId>(rng.Uniform(users));
    tweet.time = static_cast<kb::Timestamp>(rng.Uniform(1'000'000));
    linker.ConfirmLink(candidates[rng.Uniform(candidates.size())].entity,
                       tweet);
  }
  linker.WarmUp();
  EXPECT_GT(IndexMisses(), before_burst);
  const uint64_t before = IndexMisses();
  linker.WarmUp();  // no writes since: nothing to refill
  EXPECT_EQ(IndexMisses(), before);

  core::EntityLinker fresh(&kb, &ckb, &harness_->reachability(),
                           &harness_->network(), options);
  fresh.WarmUp();
  const kb::Timestamp now = 1'000'000;
  for (uint32_t sid = 0; sid < kb.surfaces().size(); ++sid) {
    const std::string& surface = kb.surfaces()[sid];
    const auto user = static_cast<kb::UserId>(sid % users);
    const core::MentionLinkResult got = linker.LinkMention(surface, user, now);
    const core::MentionLinkResult want = fresh.LinkMention(surface, user, now);
    ASSERT_EQ(got.ranked.size(), want.ranked.size()) << surface;
    for (size_t i = 0; i < want.ranked.size(); ++i) {
      EXPECT_EQ(got.ranked[i].entity, want.ranked[i].entity) << surface;
      EXPECT_EQ(got.ranked[i].score, want.ranked[i].score) << surface;
    }
  }
}

// --------------------------------------------------- parallel linking

TEST_F(ExtensionsFixture, ParallelMatchesSequential) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  std::vector<kb::Tweet> batch;
  for (uint32_t ti : harness_->test_split().tweet_indices) {
    batch.push_back(harness_->world().corpus.tweets[ti].tweet);
    if (batch.size() >= 200) break;
  }
  auto sequential = core::LinkTweetsParallel(&linker, batch, 1);
  auto parallel = core::LinkTweetsParallel(&linker, batch, 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential[i].mentions.size(), parallel[i].mentions.size());
    for (size_t m = 0; m < sequential[i].mentions.size(); ++m) {
      EXPECT_EQ(sequential[i].mentions[m].best(),
                parallel[i].mentions[m].best());
    }
  }
}

TEST_F(ExtensionsFixture, ParallelMentionRequests) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  std::vector<core::MentionRequest> requests;
  for (uint32_t ti : harness_->test_split().tweet_indices) {
    const auto& lt = harness_->world().corpus.tweets[ti];
    for (const auto& m : lt.mentions) {
      requests.push_back(
          core::MentionRequest{m.surface, lt.tweet.user, lt.tweet.time});
    }
    if (requests.size() >= 100) break;
  }
  auto results = core::LinkMentionsParallel(&linker, requests, 3);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    auto direct = linker.LinkMention(requests[i].surface, requests[i].user,
                                     requests[i].time);
    EXPECT_EQ(results[i].best(), direct.best());
  }
}

// Misspelled mentions take the fuzzy candidate path, which ranks the
// candidates' communities online (TopInfluentialAll and its per-thread
// scratch) on every reader thread; with the index off every mention does.
TEST_F(ExtensionsFixture, ParallelFuzzyMentionsMatchSequential) {
  const kb::Knowledgebase& kb = harness_->kb();
  std::vector<core::MentionRequest> requests;
  Rng rng(31);
  size_t fuzzy = 0;
  for (uint32_t ti : harness_->test_split().tweet_indices) {
    const auto& lt = harness_->world().corpus.tweets[ti];
    for (const auto& m : lt.mentions) {
      std::string surface = m.surface;
      surface[rng.Uniform(surface.size())] = '0';
      if (kb.SurfaceId(surface) == kb::Knowledgebase::kInvalidSurface) {
        ++fuzzy;
      }
      requests.push_back(
          core::MentionRequest{surface, lt.tweet.user, lt.tweet.time});
    }
    if (requests.size() >= 200) break;
  }
  ASSERT_GT(fuzzy, 0u);
  for (bool use_index : {true, false}) {
    core::LinkerOptions options = harness_->DefaultLinkerOptions();
    options.use_influential_index = use_index;
    auto linker = harness_->MakeLinker(options);
    auto results = core::LinkMentionsParallel(&linker, requests, 4);
    ASSERT_EQ(results.size(), requests.size());
    size_t linked = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      auto direct = linker.LinkMention(requests[i].surface, requests[i].user,
                                       requests[i].time);
      ASSERT_EQ(results[i].ranked.size(), direct.ranked.size());
      for (size_t j = 0; j < direct.ranked.size(); ++j) {
        EXPECT_EQ(results[i].ranked[j].entity, direct.ranked[j].entity);
        EXPECT_EQ(results[i].ranked[j].score, direct.ranked[j].score);
      }
      if (direct.linked()) ++linked;
    }
    EXPECT_GT(linked, 0u);
  }
}

TEST(ParallelLinkerTest, EmptyBatch) {
  eval::HarnessOptions options;
  options.scale = 0.3;
  eval::Harness harness(options);
  auto linker = harness.MakeLinker(harness.DefaultLinkerOptions());
  EXPECT_TRUE(core::LinkTweetsParallel(&linker, {}, 4).empty());
}

// ------------------------------------------------- personalized search

TEST_F(ExtensionsFixture, SearchReturnsFreshRelevantTweets) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  core::PersonalizedSearch search(&linker, &harness_->ckb());

  const auto& surface = harness_->world().kb_world.ambiguous_surfaces[0];
  kb::UserId user = harness_->test_split().users[0];
  kb::Timestamp now = 90 * kb::kSecondsPerDay;

  core::SearchOptions options;
  options.top_k_tweets = 5;
  auto result = search.Query(surface, user, now, options);
  ASSERT_EQ(result.interpretations.size(), 1u);
  EXPECT_TRUE(result.interpretations[0].linked());
  EXPECT_LE(result.hits.size(), 5u);
  EXPECT_FALSE(result.hits.empty());
  for (const auto& hit : result.hits) {
    EXPECT_LE(hit.time, now);  // never from the future
  }
  // Sorted by relevance, ties by freshness.
  for (size_t i = 0; i + 1 < result.hits.size(); ++i) {
    EXPECT_GE(result.hits[i].relevance, result.hits[i + 1].relevance);
  }
}

TEST_F(ExtensionsFixture, SearchFreshnessWindowFilters) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  core::PersonalizedSearch search(&linker, &harness_->ckb());
  const auto& surface = harness_->world().kb_world.ambiguous_surfaces[0];
  kb::UserId user = harness_->test_split().users[0];
  kb::Timestamp now = 90 * kb::kSecondsPerDay;

  core::SearchOptions narrow;
  narrow.freshness_window = 2 * kb::kSecondsPerDay;
  auto result = search.Query(surface, user, now, narrow);
  for (const auto& hit : result.hits) {
    EXPECT_GE(hit.time, now - narrow.freshness_window);
  }
}

TEST_F(ExtensionsFixture, SearchWithNoMentionsIsEmpty) {
  auto linker = harness_->MakeLinker(harness_->DefaultLinkerOptions());
  core::PersonalizedSearch search(&linker, &harness_->ckb());
  auto result =
      search.Query("zzz qqq completely unknown words", 0, 1000, {});
  EXPECT_TRUE(result.interpretations.empty());
  EXPECT_TRUE(result.hits.empty());
}

// ----------------------------------------------------- weight learning

TEST_F(ExtensionsFixture, LearnedWeightsLieOnSimplexAndBeatCorners) {
  auto [validation, held_out] = gen::SplitDataset(
      harness_->world().corpus, harness_->test_split(), 0.5, 3);
  auto learned = eval::LearnWeights(harness_, validation, 0.25);
  EXPECT_NEAR(learned.alpha + learned.beta + learned.gamma, 1.0, 1e-9);
  EXPECT_GE(learned.alpha, 0.0);
  EXPECT_GE(learned.beta, 0.0);
  EXPECT_GE(learned.gamma, 0.0);

  // By construction the grid includes the three corners, so the learned
  // validation accuracy dominates every single-feature configuration.
  auto corner = [&](double a, double b, double g) {
    core::LinkerOptions options = harness_->DefaultLinkerOptions();
    options.alpha = a;
    options.beta = b;
    options.gamma = g;
    auto linker = harness_->MakeLinker(options);
    return eval::EvaluateOurs(linker, harness_->world(), validation)
        .accuracy()
        .MentionAccuracy();
  };
  EXPECT_GE(learned.validation_accuracy, corner(1, 0, 0));
  EXPECT_GE(learned.validation_accuracy, corner(0, 1, 0));
  EXPECT_GE(learned.validation_accuracy, corner(0, 0, 1));
}

TEST_F(ExtensionsFixture, SplitDatasetPartitionsUsers) {
  auto [a, b] = gen::SplitDataset(harness_->world().corpus,
                                  harness_->test_split(), 0.4, 5);
  EXPECT_EQ(a.users.size() + b.users.size(),
            harness_->test_split().users.size());
  for (uint32_t u : a.users) {
    EXPECT_FALSE(std::binary_search(b.users.begin(), b.users.end(), u));
  }
  EXPECT_EQ(a.tweet_indices.size() + b.tweet_indices.size(),
            harness_->test_split().tweet_indices.size());
}

}  // namespace
}  // namespace mel
