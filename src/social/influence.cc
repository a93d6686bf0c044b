#include "social/influence.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace mel::social {

namespace {

// Eq. 7 divides by the entropy, which is 0 for a perfectly discriminative
// user. An additive smoothing of 1 keeps the score finite and bounded in
// (0, 1], preserving the ranking "focused users first, then by tweet
// share" without letting zero-entropy users dwarf everyone else.
constexpr double kEntropySmoothing = 1.0;

// The discriminativeness term of Eq. 6 / Eq. 7 for one user, from her
// tweet counts |D_e^u| over the candidate set, in candidate order. Both
// influence paths go through here, so their results agree bit for bit.
double DiscriminativenessOf(InfluenceMethod method,
                            std::span<const uint32_t> counts) {
  if (method == InfluenceMethod::kTfIdf) {
    // log(|E_m| / |E_m^u|): how unique u's interest is among candidates.
    uint32_t mentioned = 0;
    for (uint32_t c : counts) {
      if (c > 0) ++mentioned;
    }
    if (mentioned == 0) return 0;
    return std::log(static_cast<double>(counts.size()) / mentioned);
  }
  // Entropy of u's tweet distribution over the candidates (Eq. 7).
  double total = 0;
  for (uint32_t c : counts) total += c;
  if (total == 0) return 0;
  double entropy = 0;
  for (uint32_t c : counts) {
    if (c == 0) continue;
    double p = c / total;
    entropy -= p * std::log(p);
  }
  return 1.0 / (entropy + kEntropySmoothing);
}

// Ranks the community of an entity with `linked` tweets by
// |D_e^u| / |D_e| * disc_of(u), keeping the top_k (0 = all).
template <typename DiscOf>
std::vector<InfluentialUser> RankCommunity(
    std::span<const std::pair<kb::UserId, uint32_t>> community,
    uint32_t linked, uint32_t top_k, DiscOf disc_of) {
  std::vector<InfluentialUser> scored;
  scored.reserve(community.size());
  const double inv_total = community.empty() ? 0 : 1.0 / linked;
  for (const auto& [user, count] : community) {
    double influence = count * inv_total * disc_of(user);
    scored.push_back(InfluentialUser{user, influence});
  }
  auto by_influence = [](const InfluentialUser& a, const InfluentialUser& b) {
    if (a.influence != b.influence) return a.influence > b.influence;
    return a.user < b.user;  // deterministic tie-break
  };
  if (top_k != 0 && top_k < scored.size()) {
    std::partial_sort(scored.begin(), scored.begin() + top_k, scored.end(),
                      by_influence);
    scored.resize(top_k);
  } else {
    std::sort(scored.begin(), scored.end(), by_influence);
  }
  return scored;
}

// Per-thread scratch of TopInfluentialAll: user -> row + 1 (0 = no row),
// one row of per-candidate counts per distinct user, and the users in row
// order so clearing costs what the scatter touched.
struct ScatterTable {
  std::vector<uint32_t> row_of;
  std::vector<kb::UserId> touched;
  std::vector<uint32_t> counts;  // touched.size() x |E_m|
  std::vector<double> disc;      // per row
};

}  // namespace

InfluenceEstimator::InfluenceEstimator(
    const kb::ComplementedKnowledgebase* ckb, InfluenceMethod method)
    : ckb_(ckb), method_(method) {
  MEL_CHECK(ckb != nullptr);
}

double InfluenceEstimator::Discriminativeness(
    kb::UserId u, std::span<const kb::EntityId> candidates) const {
  thread_local std::vector<uint32_t> counts;
  counts.clear();
  for (kb::EntityId e : candidates) {
    counts.push_back(ckb_->UserTweetCount(e, u));
  }
  return DiscriminativenessOf(method_, counts);
}

double InfluenceEstimator::Influence(
    kb::UserId u, kb::EntityId entity,
    std::span<const kb::EntityId> candidates) const {
  uint32_t community_tweets = ckb_->LinkedTweetCount(entity);
  if (community_tweets == 0) return 0;
  uint32_t user_tweets = ckb_->UserTweetCount(entity, u);
  if (user_tweets == 0) return 0;
  double share = static_cast<double>(user_tweets) / community_tweets;
  return share * Discriminativeness(u, candidates);
}

std::vector<InfluentialUser> InfluenceEstimator::TopInfluential(
    kb::EntityId entity, std::span<const kb::EntityId> candidates,
    uint32_t top_k) const {
  return RankCommunity(
      ckb_->Community(entity), ckb_->LinkedTweetCount(entity), top_k,
      [&](kb::UserId u) { return Discriminativeness(u, candidates); });
}

std::vector<std::vector<InfluentialUser>>
InfluenceEstimator::TopInfluentialAll(std::span<const kb::EntityId> candidates,
                                      uint32_t top_k) const {
  thread_local ScatterTable t;
  const size_t m = candidates.size();
  // Scatter: row r holds |D_e^u| of its user u for every candidate e.
  for (size_t i = 0; i < m; ++i) {
    for (const auto& [user, count] : ckb_->Community(candidates[i])) {
      if (user >= t.row_of.size()) t.row_of.resize(size_t{user} + 1, 0);
      uint32_t& row = t.row_of[user];
      if (row == 0) {
        t.touched.push_back(user);
        row = static_cast<uint32_t>(t.touched.size());
        t.counts.resize(t.counts.size() + m, 0);
      }
      t.counts[(row - 1) * m + i] = count;
    }
  }
  t.disc.resize(t.touched.size());
  for (size_t r = 0; r < t.touched.size(); ++r) {
    t.disc[r] = DiscriminativenessOf(
        method_, std::span<const uint32_t>(t.counts).subspan(r * m, m));
  }

  std::vector<std::vector<InfluentialUser>> ranked;
  ranked.reserve(m);
  for (kb::EntityId e : candidates) {
    ranked.push_back(RankCommunity(
        ckb_->Community(e), ckb_->LinkedTweetCount(e), top_k,
        [&](kb::UserId u) { return t.disc[t.row_of[u] - 1]; }));
  }

  for (kb::UserId u : t.touched) t.row_of[u] = 0;
  t.touched.clear();
  t.counts.clear();
  return ranked;
}

}  // namespace mel::social
