#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "kb/complemented_kb.h"
#include "kb/knowledgebase.h"
#include "kb/types.h"
#include "kb/wlm.h"

namespace mel::kb {
namespace {

// A small handcrafted knowledgebase mirroring the paper's Fig. 1:
// "jordan" is ambiguous between a country, a shoe brand, a basketball
// player, and a machine-learning expert.
class KbFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    country_ = kb_.AddEntity("Jordan (country)", EntityCategory::kLocation,
                             {"country", "middle", "east"});
    shoe_ = kb_.AddEntity("Air Jordan", EntityCategory::kProduct,
                          {"shoe", "brand", "nike"});
    player_ = kb_.AddEntity("Michael Jordan (basketball)",
                            EntityCategory::kPerson,
                            {"basketball", "bulls", "nba"});
    expert_ = kb_.AddEntity("Michael Jordan (ML)", EntityCategory::kPerson,
                            {"machine", "learning", "berkeley"});
    bulls_ = kb_.AddEntity("Chicago Bulls", EntityCategory::kCompany,
                           {"basketball", "team", "nba"});
    nba_ = kb_.AddEntity("NBA", EntityCategory::kCompany,
                         {"basketball", "league"});
    icml_ = kb_.AddEntity("ICML", EntityCategory::kCompany,
                          {"machine", "learning", "conference"});

    kb_.AddSurfaceForm("Jordan", country_, 50);
    kb_.AddSurfaceForm("Jordan", shoe_, 30);
    kb_.AddSurfaceForm("Jordan", player_, 100);
    kb_.AddSurfaceForm("Jordan", expert_, 10);
    kb_.AddSurfaceForm("Michael Jordan", player_, 80);
    kb_.AddSurfaceForm("Michael Jordan", expert_, 15);
    kb_.AddSurfaceForm("Chicago Bulls", bulls_, 60);
    kb_.AddSurfaceForm("Bulls", bulls_, 40);
    kb_.AddSurfaceForm("NBA", nba_, 70);
    kb_.AddSurfaceForm("ICML", icml_, 20);

    // Basketball articles co-cite each other; ML articles likewise.
    kb_.AddHyperlink(bulls_, player_);
    kb_.AddHyperlink(nba_, player_);
    kb_.AddHyperlink(nba_, bulls_);
    kb_.AddHyperlink(player_, bulls_);
    kb_.AddHyperlink(player_, nba_);
    kb_.AddHyperlink(bulls_, nba_);
    kb_.AddHyperlink(icml_, expert_);
    kb_.AddHyperlink(expert_, icml_);

    kb_.Finalize();
  }

  Knowledgebase kb_;
  EntityId country_, shoe_, player_, expert_, bulls_, nba_, icml_;
};

TEST_F(KbFixture, CandidatesSortedByAnchorCount) {
  auto cands = kb_.Candidates("jordan");
  ASSERT_EQ(cands.size(), 4u);
  EXPECT_EQ(cands[0].entity, player_);  // most anchors
  EXPECT_EQ(cands[0].anchor_count, 100u);
  EXPECT_EQ(cands[3].entity, expert_);
}

TEST_F(KbFixture, SurfaceNormalization) {
  // Lookup is case- and punctuation-insensitive.
  EXPECT_EQ(kb_.Candidates("JORDAN").size(), 4u);
  EXPECT_EQ(kb_.Candidates("Michael  Jordan!").size(), 2u);
  EXPECT_TRUE(kb_.HasSurface("chicago bulls"));
  EXPECT_FALSE(kb_.HasSurface("los angeles"));
}

TEST_F(KbFixture, UnknownSurfaceHasNoCandidates) {
  EXPECT_TRUE(kb_.Candidates("nonexistent").empty());
}

TEST_F(KbFixture, RepeatedSurfaceFormAccumulatesAnchors) {
  Knowledgebase kb;
  EntityId e = kb.AddEntity("X", EntityCategory::kPerson, {});
  kb.AddSurfaceForm("x", e, 5);
  kb.AddSurfaceForm("x", e, 7);
  kb.Finalize();
  auto cands = kb.Candidates("x");
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].anchor_count, 12u);
}

TEST_F(KbFixture, HyperlinksAreDeduplicated) {
  Knowledgebase kb;
  EntityId a = kb.AddEntity("A", EntityCategory::kPerson, {});
  EntityId b = kb.AddEntity("B", EntityCategory::kPerson, {});
  kb.AddHyperlink(a, b);
  kb.AddHyperlink(a, b);
  kb.AddHyperlink(a, a);  // self-link dropped
  kb.Finalize();
  EXPECT_EQ(kb.Inlinks(b).size(), 1u);
  EXPECT_EQ(kb.Outlinks(a).size(), 1u);
  EXPECT_TRUE(kb.Inlinks(a).empty());
}

TEST_F(KbFixture, VocabularyInternsDescriptions) {
  const auto& rec = kb_.entity(player_);
  ASSERT_EQ(rec.description.size(), 3u);
  EXPECT_EQ(kb_.vocab().Word(rec.description[0]), "basketball");
  // "basketball" is shared between player_ and bulls_.
  EXPECT_EQ(kb_.entity(bulls_).description[0], rec.description[0]);
  EXPECT_EQ(kb_.vocab().Find("basketball"), rec.description[0]);
  EXPECT_EQ(kb_.vocab().Find("never-seen"), Vocabulary::kMissing);
}

// -------------------------------------------------------------------- WLM

TEST_F(KbFixture, WlmRelatedEntitiesScoreHigh) {
  WlmRelatedness wlm(&kb_);
  // player_ and bulls_ are both linked from {nba_} (player also from
  // bulls_, bulls also from player_): strong overlap.
  double related = wlm.Relatedness(player_, bulls_);
  double unrelated = wlm.Relatedness(player_, country_);
  EXPECT_GT(related, 0.0);
  EXPECT_EQ(unrelated, 0.0);
  EXPECT_GT(related, unrelated);
}

TEST_F(KbFixture, WlmIsSymmetricAndReflexive) {
  WlmRelatedness wlm(&kb_);
  EXPECT_DOUBLE_EQ(wlm.Relatedness(player_, nba_),
                   wlm.Relatedness(nba_, player_));
  EXPECT_DOUBLE_EQ(wlm.Relatedness(player_, player_), 1.0);
}

TEST_F(KbFixture, WlmNoInlinksMeansZero) {
  WlmRelatedness wlm(&kb_);
  // country_ has no inlinks at all.
  EXPECT_EQ(wlm.Relatedness(country_, shoe_), 0.0);
}

TEST_F(KbFixture, WlmIntersection) {
  WlmRelatedness wlm(&kb_);
  // Inlinks(player_) = {bulls_, nba_}; Inlinks(bulls_) = {nba_, player_}.
  EXPECT_EQ(wlm.InlinkIntersection(player_, bulls_), 1u);  // common: nba_
  EXPECT_EQ(wlm.InlinkIntersection(player_, icml_), 0u);
}

TEST_F(KbFixture, WlmInRange) {
  WlmRelatedness wlm(&kb_);
  for (EntityId a = 0; a < kb_.num_entities(); ++a) {
    for (EntityId b = 0; b < kb_.num_entities(); ++b) {
      double r = wlm.Relatedness(a, b);
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0);
    }
  }
}

// ---------------------------------------------------- complemented KB

TEST_F(KbFixture, PostingsAndCommunity) {
  ComplementedKnowledgebase ckb(&kb_);
  ckb.AddLink(player_, Posting{1, 10, 100});
  ckb.AddLink(player_, Posting{2, 11, 200});
  ckb.AddLink(player_, Posting{3, 10, 300});
  ckb.AddLink(expert_, Posting{4, 12, 150});

  EXPECT_EQ(ckb.LinkedTweetCount(player_), 3u);
  EXPECT_EQ(ckb.LinkedTweetCount(expert_), 1u);
  EXPECT_EQ(ckb.LinkedTweetCount(country_), 0u);
  EXPECT_EQ(ckb.TotalLinks(), 4u);

  EXPECT_EQ(ckb.UserTweetCount(player_, 10), 2u);
  EXPECT_EQ(ckb.UserTweetCount(player_, 11), 1u);
  EXPECT_EQ(ckb.UserTweetCount(player_, 12), 0u);

  auto community = ckb.Community(player_);
  EXPECT_EQ(community.size(), 2u);  // users 10 and 11
}

TEST_F(KbFixture, RecentTweetCountWindow) {
  ComplementedKnowledgebase ckb(&kb_);
  for (Timestamp t = 0; t < 10; ++t) {
    ckb.AddLink(player_, Posting{static_cast<TweetId>(t), 1, t * 100});
  }
  // Window [400, 900]: times 400..900 step 100 -> 6 postings.
  EXPECT_EQ(ckb.RecentTweetCount(player_, 900, 500), 6u);
  // Window ending before everything.
  EXPECT_EQ(ckb.RecentTweetCount(player_, -1, 500), 0u);
  // Window covering everything.
  EXPECT_EQ(ckb.RecentTweetCount(player_, 10000, 100000), 10u);
  // 'now' in the middle excludes later postings.
  EXPECT_EQ(ckb.RecentTweetCount(player_, 450, 10000), 5u);  // 0..400
}

TEST_F(KbFixture, OutOfOrderInsertsAreResorted) {
  ComplementedKnowledgebase ckb(&kb_);
  ckb.AddLink(player_, Posting{1, 1, 500});
  ckb.AddLink(player_, Posting{2, 1, 100});  // out of order
  ckb.AddLink(player_, Posting{3, 1, 300});
  auto postings = ckb.Postings(player_);
  ASSERT_EQ(postings.size(), 3u);
  EXPECT_EQ(postings[0].time, 100);
  EXPECT_EQ(postings[1].time, 300);
  EXPECT_EQ(postings[2].time, 500);
  EXPECT_EQ(ckb.RecentTweetCount(player_, 350, 300), 2u);  // 100, 300
}

// EnsureAllSorted merges a stably sorted tail behind the sorted prefix;
// the order, ties included, must equal a whole-list stable_sort of the
// insertion sequence, whether lists are sorted at a barrier or lazily.
TEST_F(KbFixture, DirtyTailMergeMatchesWholeListStableSort) {
  ComplementedKnowledgebase ckb(&kb_);
  const EntityId entities[] = {player_, nba_, shoe_};
  std::vector<Posting> inserted[3];
  uint64_t state = 12345;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  for (TweetId t = 0; t < 3000; ++t) {
    const size_t i = next(3);
    // Few distinct times, so ties are common; a slow upward drift keeps
    // some appends in order.
    const Posting p{t, static_cast<UserId>(next(5)),
                    static_cast<Timestamp>(t / 50 + next(8))};
    ckb.AddLink(entities[i], p);
    inserted[i].push_back(p);
    if (next(97) == 0) ckb.EnsureAllSorted();
    if (next(211) == 0) (void)ckb.Postings(entities[next(3)]);
    if (t % 500 != 499) continue;
    ckb.EnsureAllSorted();
    for (size_t k = 0; k < 3; ++k) {
      std::vector<Posting> want = inserted[k];
      std::stable_sort(want.begin(), want.end(),
                       [](const Posting& a, const Posting& b) {
                         return a.time < b.time;
                       });
      const auto got = ckb.Postings(entities[k]);
      ASSERT_EQ(got.size(), want.size());
      for (size_t j = 0; j < want.size(); ++j) {
        ASSERT_EQ(got[j].tweet, want[j].tweet) << "entity " << k << " pos "
                                               << j << " after " << t;
      }
    }
  }
}

TEST_F(KbFixture, ComplementedKbVersionBumpsOnEveryAddLink) {
  ComplementedKnowledgebase ckb(&kb_);
  const uint64_t v0 = ckb.version();
  ckb.AddLink(nba_, Posting{1, 2, 100});
  EXPECT_EQ(ckb.version(), v0 + 1);
  ckb.AddLink(nba_, Posting{2, 2, 101});
  ckb.AddLink(player_, Posting{3, 4, 102});
  EXPECT_EQ(ckb.version(), v0 + 3);
}

TEST(WlmSkewedTest, GallopingIntersectionMatchesBruteForce) {
  // Heavily skewed inlink lists (one hub, many small entities) drive the
  // galloping path; the count must match a brute-force pairwise scan.
  Knowledgebase kb;
  EntityId hub = kb.AddEntity("hub", EntityCategory::kCompany, {});
  EntityId niche = kb.AddEntity("niche", EntityCategory::kCompany, {});
  EntityId empty = kb.AddEntity("empty", EntityCategory::kCompany, {});
  std::vector<EntityId> articles;
  for (int i = 0; i < 200; ++i) {
    EntityId a = kb.AddEntity("a" + std::to_string(i),
                              EntityCategory::kMovieMusic, {});
    articles.push_back(a);
    kb.AddHyperlink(a, hub);  // every article links the hub
    if (i % 31 == 0) kb.AddHyperlink(a, niche);  // 7 articles link niche
  }
  kb.Finalize();
  WlmRelatedness wlm(&kb);

  auto brute = [&](EntityId x, EntityId y) {
    uint32_t count = 0;
    auto ix = kb.Inlinks(x);
    for (EntityId a : ix) {
      auto iy = kb.Inlinks(y);
      if (std::find(iy.begin(), iy.end(), a) != iy.end()) ++count;
    }
    return count;
  };
  // |hub| = 200, |niche| = 7: ratio >= 16 selects galloping.
  EXPECT_EQ(wlm.InlinkIntersection(hub, niche), brute(hub, niche));
  EXPECT_EQ(wlm.InlinkIntersection(niche, hub), brute(hub, niche));
  EXPECT_EQ(wlm.InlinkIntersection(hub, niche), 7u);
  EXPECT_EQ(wlm.InlinkIntersection(hub, empty), 0u);
  EXPECT_EQ(wlm.InlinkIntersection(hub, hub), 200u);
  double rel = wlm.Relatedness(hub, niche);
  EXPECT_GE(rel, 0.0);
  EXPECT_LE(rel, 1.0);
}

TEST_F(KbFixture, CommunityCountsStayConsistentAfterManyLinks) {
  ComplementedKnowledgebase ckb(&kb_);
  for (int i = 0; i < 100; ++i) {
    ckb.AddLink(nba_, Posting{static_cast<TweetId>(i),
                              static_cast<UserId>(i % 7), i});
  }
  uint32_t total = 0;
  for (const auto& [user, count] : ckb.Community(nba_)) {
    EXPECT_EQ(count, ckb.UserTweetCount(nba_, user));
    total += count;
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(ckb.Community(nba_).size(), 7u);
}

}  // namespace
}  // namespace mel::kb
