#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "kb/complemented_kb.h"
#include "kb/knowledgebase.h"
#include "reach/naive_reachability.h"
#include "social/influence.h"
#include "social/user_interest.h"
#include "util/random.h"

namespace mel::social {
namespace {

// World mirroring the paper's running example. Users:
//   0 = target user (follows the NBA hub)
//   1 = @NBAOfficial      — tweets only about the player
//   2 = ML expert         — tweets about both player and expert
//   3 = random user       — one tweet about the shoe
// Entities: 0 = player, 1 = expert, 2 = shoe.
class SocialFixture : public ::testing::Test {
 protected:
  SocialFixture() {
    player_ = kb_.AddEntity("player", kb::EntityCategory::kPerson, {});
    expert_ = kb_.AddEntity("expert", kb::EntityCategory::kPerson, {});
    shoe_ = kb_.AddEntity("shoe", kb::EntityCategory::kProduct, {});
    kb_.AddSurfaceForm("jordan", player_, 10);
    kb_.AddSurfaceForm("jordan", expert_, 5);
    kb_.AddSurfaceForm("jordan", shoe_, 3);
    kb_.Finalize();
    ckb_ = std::make_unique<kb::ComplementedKnowledgebase>(&kb_);

    // @NBAOfficial (user 1): 6 tweets, all about the player.
    for (int i = 0; i < 6; ++i) {
      ckb_->AddLink(player_, kb::Posting{static_cast<kb::TweetId>(i), 1,
                                         i * 10});
    }
    // ML expert (user 2): 2 about the expert, 2 about the player.
    ckb_->AddLink(expert_, kb::Posting{10, 2, 5});
    ckb_->AddLink(expert_, kb::Posting{11, 2, 15});
    ckb_->AddLink(player_, kb::Posting{12, 2, 25});
    ckb_->AddLink(player_, kb::Posting{13, 2, 35});
    // Random user 3: 1 tweet about the shoe.
    ckb_->AddLink(shoe_, kb::Posting{20, 3, 7});

    candidates_ = {player_, expert_, shoe_};
  }

  kb::Knowledgebase kb_;
  std::unique_ptr<kb::ComplementedKnowledgebase> ckb_;
  kb::EntityId player_, expert_, shoe_;
  std::vector<kb::EntityId> candidates_;
};

TEST_F(SocialFixture, TfIdfRewardsFocusedUsers) {
  InfluenceEstimator inf(ckb_.get(), InfluenceMethod::kTfIdf);
  // User 1 mentions only 1 of 3 candidates: idf = log(3).
  double u1 = inf.Influence(1, player_, candidates_);
  EXPECT_NEAR(u1, (6.0 / 8.0) * std::log(3.0), 1e-9);
  // User 2 mentions 2 of 3 candidates: idf = log(1.5), smaller.
  double u2 = inf.Influence(2, player_, candidates_);
  EXPECT_NEAR(u2, (2.0 / 8.0) * std::log(1.5), 1e-9);
  EXPECT_GT(u1, u2);
}

TEST_F(SocialFixture, InfluenceZeroWithoutTweets) {
  InfluenceEstimator inf(ckb_.get(), InfluenceMethod::kTfIdf);
  EXPECT_EQ(inf.Influence(0, player_, candidates_), 0.0);
  EXPECT_EQ(inf.Influence(1, expert_, candidates_), 0.0);
}

TEST_F(SocialFixture, EntropyToleratesIncidentalPostings) {
  // Add an incidental shoe tweet from @NBAOfficial. Under tf-idf its
  // influence in the player community collapses (idf log(3) -> log(1.5));
  // under entropy it barely moves.
  InfluenceEstimator tfidf(ckb_.get(), InfluenceMethod::kTfIdf);
  InfluenceEstimator entropy(ckb_.get(), InfluenceMethod::kEntropy);

  double tfidf_before = tfidf.Influence(1, player_, candidates_);
  double entropy_before = entropy.Influence(1, player_, candidates_);
  ckb_->AddLink(shoe_, kb::Posting{30, 1, 50});
  double tfidf_after = tfidf.Influence(1, player_, candidates_);
  double entropy_after = entropy.Influence(1, player_, candidates_);

  double tfidf_drop = (tfidf_before - tfidf_after) / tfidf_before;
  double entropy_drop = (entropy_before - entropy_after) / entropy_before;
  EXPECT_GT(tfidf_drop, entropy_drop);
  EXPECT_LT(entropy_drop, 0.95);  // entropy influence survives
}

TEST_F(SocialFixture, EntropyUniformDistributionScoresLow) {
  // User 5 spreads tweets evenly over all three candidates.
  for (int i = 0; i < 2; ++i) {
    ckb_->AddLink(player_, kb::Posting{static_cast<kb::TweetId>(40 + i), 5,
                                       i});
    ckb_->AddLink(expert_, kb::Posting{static_cast<kb::TweetId>(50 + i), 5,
                                       i});
    ckb_->AddLink(shoe_, kb::Posting{static_cast<kb::TweetId>(60 + i), 5,
                                     i});
  }
  InfluenceEstimator inf(ckb_.get(), InfluenceMethod::kEntropy);
  // Focused user 1 beats diversified user 5 in the player community even
  // though user 5 has positive share.
  EXPECT_GT(inf.Influence(1, player_, candidates_),
            inf.Influence(5, player_, candidates_));
}

TEST_F(SocialFixture, TopInfluentialRankingAndTruncation) {
  InfluenceEstimator inf(ckb_.get(), InfluenceMethod::kTfIdf);
  auto top = inf.TopInfluential(player_, candidates_, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].user, 1u);  // @NBAOfficial dominates

  auto all = inf.TopInfluential(player_, candidates_, 0);
  ASSERT_EQ(all.size(), 2u);  // users 1 and 2
  EXPECT_EQ(all[0].user, 1u);
  EXPECT_EQ(all[1].user, 2u);
  EXPECT_GE(all[0].influence, all[1].influence);

  // top_k larger than community: returns whole community.
  auto big = inf.TopInfluential(player_, candidates_, 10);
  EXPECT_EQ(big.size(), 2u);
}

TEST_F(SocialFixture, TopInfluentialEmptyCommunity) {
  InfluenceEstimator inf(ckb_.get(), InfluenceMethod::kEntropy);
  kb::Knowledgebase kb2;
  kb::EntityId lonely = kb2.AddEntity("x", kb::EntityCategory::kPerson, {});
  kb2.Finalize();
  kb::ComplementedKnowledgebase ckb2(&kb2);
  InfluenceEstimator inf2(&ckb2, InfluenceMethod::kEntropy);
  EXPECT_TRUE(inf2.TopInfluential(lonely, {{lonely}}, 3).empty());
}

// Every TopInfluentialAll row equals the per-entity TopInfluential call,
// bit for bit: same users in the same order, identical influence doubles.
void ExpectRowsMatch(const InfluenceEstimator& inf,
                     const std::vector<kb::EntityId>& candidates,
                     uint32_t top_k) {
  const auto rows = inf.TopInfluentialAll(candidates, top_k);
  ASSERT_EQ(rows.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const auto want = inf.TopInfluential(candidates[i], candidates, top_k);
    ASSERT_EQ(rows[i].size(), want.size()) << "row " << i << " k " << top_k;
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(rows[i][j].user, want[j].user) << "row " << i << " pos " << j;
      EXPECT_EQ(rows[i][j].influence, want[j].influence)
          << "row " << i << " pos " << j;
    }
  }
}

TEST_F(SocialFixture, TopInfluentialAllMatchesPerEntityCalls) {
  // User 2 is shared by the player and expert communities.
  for (InfluenceMethod method :
       {InfluenceMethod::kTfIdf, InfluenceMethod::kEntropy}) {
    InfluenceEstimator inf(ckb_.get(), method);
    for (uint32_t top_k : {0u, 1u, 5u, 10u}) {
      ExpectRowsMatch(inf, candidates_, top_k);
    }
    ExpectRowsMatch(inf, {expert_, player_}, 1);
    ExpectRowsMatch(inf, {shoe_}, 0);
  }
  InfluenceEstimator inf(ckb_.get(), InfluenceMethod::kTfIdf);
  EXPECT_TRUE(inf.TopInfluentialAll({}, 5).empty());
  auto top1 = inf.TopInfluentialAll(candidates_, 1);
  ASSERT_EQ(top1[0].size(), 1u);
  EXPECT_EQ(top1[0][0].user, 1u);  // @NBAOfficial dominates the player
}

TEST(TopInfluentialAllTest, RandomCommunitiesMatchBitExact) {
  // Eight entities; entity 7 stays without links (empty community). A
  // small user pool with sparse, large ids makes most users shared by
  // several communities.
  kb::Knowledgebase kb;
  std::vector<kb::EntityId> entities;
  for (int e = 0; e < 8; ++e) {
    entities.push_back(kb.AddEntity("e" + std::to_string(e),
                                    kb::EntityCategory::kPerson, {}));
  }
  kb.Finalize();
  kb::ComplementedKnowledgebase ckb(&kb);
  Rng rng(17);
  for (kb::TweetId t = 0; t < 600; ++t) {
    const auto e = static_cast<kb::EntityId>(rng.Uniform(7));
    const auto u = static_cast<kb::UserId>(rng.Uniform(25) * 211);
    ckb.AddLink(e, kb::Posting{t, u, static_cast<kb::Timestamp>(t)});
  }
  ASSERT_TRUE(ckb.Community(entities[7]).empty());

  for (InfluenceMethod method :
       {InfluenceMethod::kTfIdf, InfluenceMethod::kEntropy}) {
    InfluenceEstimator inf(&ckb, method);
    for (uint32_t top_k : {0u, 1u, 5u, 100u}) {
      ExpectRowsMatch(inf, entities, top_k);
      ExpectRowsMatch(inf, {entities[7], entities[2], entities[5]}, top_k);
      // A repeated candidate counts twice in E_m, as in TopInfluential.
      ExpectRowsMatch(inf, {entities[3], entities[1], entities[3]}, top_k);
    }
  }
}

// ------------------------------------------------------- user interest

TEST_F(SocialFixture, InterestAveragesReachability) {
  // Followee graph: 0 -> 1 (target follows the hub), 3 -> 2.
  graph::GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(3, 2);
  auto g = std::move(b).Build();
  reach::NaiveReachability reach(&g, 5);
  InfluenceEstimator inf(ckb_.get(), InfluenceMethod::kTfIdf);
  UserInterestScorer scorer(&inf, &reach, 0);

  // Community of player = {1, 2}; user 0 reaches 1 (score 1) but not 2.
  double interest = scorer.Interest(0, player_, candidates_);
  EXPECT_DOUBLE_EQ(interest, 0.5);

  // With top-1 influential (user 1), interest is 1.0.
  scorer.set_top_k_influential(1);
  EXPECT_DOUBLE_EQ(scorer.Interest(0, player_, candidates_), 1.0);

  // User 3 follows 2 but not 1: top-1 influential gives 0.
  EXPECT_DOUBLE_EQ(scorer.Interest(3, player_, candidates_), 0.0);
}

TEST_F(SocialFixture, InterestOverEmptySetIsZero) {
  graph::GraphBuilder b(6);
  auto g = std::move(b).Build();
  reach::NaiveReachability reach(&g, 5);
  InfluenceEstimator inf(ckb_.get(), InfluenceMethod::kTfIdf);
  UserInterestScorer scorer(&inf, &reach, 3);
  EXPECT_DOUBLE_EQ(scorer.InterestOver(0, {}), 0.0);
}

}  // namespace
}  // namespace mel::social
