#include "social/user_interest.h"

#include <vector>

#include "util/logging.h"

namespace mel::social {

UserInterestScorer::UserInterestScorer(
    const InfluenceEstimator* influence,
    const reach::WeightedReachability* reachability,
    uint32_t top_k_influential)
    : influence_(influence), reach_(reachability), top_k_(top_k_influential) {
  MEL_CHECK(influence != nullptr && reachability != nullptr);
}

double UserInterestScorer::Interest(
    kb::UserId u, kb::EntityId entity,
    std::span<const kb::EntityId> candidates) const {
  auto influential = influence_->TopInfluential(entity, candidates, top_k_);
  return InterestOver(u, influential);
}

double UserInterestScorer::InterestOver(
    kb::UserId u, std::span<const InfluentialUser> influential) const {
  if (influential.empty()) return 0;
  // Eq. 4 only divides |F_uv|, so the count-only path suffices; one
  // ScoreOnlyMany call lets the backend share the author's half of the
  // query across all influencers. Per-thread buffers keep the linker's
  // hot path allocation-free.
  thread_local std::vector<reach::NodeId> users;
  thread_local std::vector<double> scores;
  users.clear();
  for (const InfluentialUser& v : influential) users.push_back(v.user);
  scores.resize(users.size());
  reach_->ScoreOnlyMany(u, users, scores.data());
  // Summed in influencer order: S_in must stay bit-identical to a
  // per-pair ScoreOnly loop.
  double total = 0;
  for (double s : scores) total += s;
  return total / static_cast<double>(influential.size());
}

}  // namespace mel::social
