#ifndef MEL_TESTING_ORACLE_H_
#define MEL_TESTING_ORACLE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/entity_linker.h"
#include "graph/directed_graph.h"
#include "kb/complemented_kb.h"
#include "kb/knowledgebase.h"
#include "kb/types.h"
#include "reach/weighted_reachability.h"
#include "recency/propagation_network.h"
#include "recency/recency_propagator.h"
#include "recency/recency_source.h"
#include "social/influence.h"

namespace mel::testing {

/// \file
/// Deliberately naive, single-threaded reference implementations of the
/// paper's equations, written straight from PAPER.md with no sharing of
/// code or data structures with the production paths.
///
/// These oracles are the ground truth of the differential harness: every
/// index, cache, and parallel construction in src/ must agree with them
/// (exactly where the PRs claimed byte-identity, within a tiny float
/// tolerance where storage precision differs). They favour obvious
/// correctness over speed — per-query BFS storms, dense matrices, full
/// scans — and are only ever run on the small randomized worlds of
/// RandomWorkload.

// ---------------------------------------------------------------------------
// Eq. 4 / Eq. 5 — weighted reachability by plain forward BFS.
// ---------------------------------------------------------------------------

/// Shortest-path distance from u to v by an unadorned forward BFS over
/// OutNeighbors, bounded by max_hops. Returns reach::kUnreachableDistance
/// beyond the bound. Allocates its own queue/visited arrays every call —
/// no scratch reuse, no Theorem-1 backward trick.
uint32_t OracleDistance(const graph::DirectedGraph& g, graph::NodeId u,
                        graph::NodeId v, uint32_t max_hops);

/// Eq. 5: distance plus the followees of u on at least one shortest path.
/// F_uv is derived from first principles — followee t participates iff
/// d(u,v) = 1 + d(t,v), established by one independent forward BFS from
/// every followee of u (not by reusing the backward-BFS distance field the
/// production NaiveReachability exploits).
reach::ReachQueryResult OracleReachQuery(const graph::DirectedGraph& g,
                                         graph::NodeId u, graph::NodeId v,
                                         uint32_t max_hops);

/// Eq. 4 with the paper's conventions (R(u,u)=1, direct followees 1,
/// unreachable 0).
double OracleReachScore(const graph::DirectedGraph& g, graph::NodeId u,
                        graph::NodeId v, uint32_t max_hops);

/// WeightedReachability adapter over the oracle, so it can stand in for
/// any production backend inside a full linker pipeline.
class OracleReachability : public reach::WeightedReachability {
 public:
  OracleReachability(const graph::DirectedGraph* g, uint32_t max_hops)
      : g_(g), max_hops_(max_hops) {}

  double ScoreOnly(graph::NodeId u, graph::NodeId v) const override {
    return OracleReachScore(*g_, u, v, max_hops_);
  }
  reach::ReachQueryResult Query(graph::NodeId u,
                                graph::NodeId v) const override {
    return OracleReachQuery(*g_, u, v, max_hops_);
  }
  uint64_t IndexSizeBytes() const override { return 0; }
  const char* Name() const override { return "oracle-forward-bfs"; }
  uint32_t num_nodes() const override { return g_->num_nodes(); }

 private:
  const graph::DirectedGraph* g_;
  uint32_t max_hops_;
};

// ---------------------------------------------------------------------------
// Eq. 9 — sliding-window burst detection by full posting-list scan.
// ---------------------------------------------------------------------------

/// |D_e^tau| at `now` by a linear scan of the entity's posting list (no
/// binary search, no bucketing).
uint32_t OracleRecentCount(const kb::ComplementedKnowledgebase& ckb,
                           kb::EntityId e, kb::Timestamp now,
                           kb::Timestamp tau);

/// Thresholded burst mass: the Eq. 9 numerator (count when >= theta1,
/// else 0).
double OracleBurstMass(const kb::ComplementedKnowledgebase& ckb,
                       kb::EntityId e, kb::Timestamp now, kb::Timestamp tau,
                       uint32_t theta1);

/// RecencySource adapter over the linear-scan oracle. Reports kNoEpoch so
/// no propagator ever memoizes oracle results.
class OracleRecencySource : public recency::RecencySource {
 public:
  OracleRecencySource(const kb::ComplementedKnowledgebase* ckb,
                      kb::Timestamp tau, uint32_t theta1)
      : ckb_(ckb), tau_(tau), theta1_(theta1) {}

  uint32_t RecentCount(kb::EntityId e, kb::Timestamp now) const override {
    return OracleRecentCount(*ckb_, e, now, tau_);
  }
  double BurstMass(kb::EntityId e, kb::Timestamp now) const override {
    return OracleBurstMass(*ckb_, e, now, tau_, theta1_);
  }

 private:
  const kb::ComplementedKnowledgebase* ckb_;
  kb::Timestamp tau_;
  uint32_t theta1_;
};

// ---------------------------------------------------------------------------
// Eq. 11 — recency propagation by dense power iteration.
// ---------------------------------------------------------------------------

/// Propagated recency of a cluster's members via S^i = lambda * S^0 +
/// (1 - lambda) * P * S^{i-1}, with P materialized as a dense m x m row
/// matrix (the production path walks sparse adjacency). Iteration count
/// and convergence test mirror PropagatorOptions.
std::vector<double> OraclePropagateCluster(
    const recency::PropagationNetwork& network,
    const recency::RecencySource& source, uint32_t cluster,
    kb::Timestamp now, const recency::PropagatorOptions& options);

/// The CandidateScores convenience (Eq. 9 normalization over the
/// candidate set, dense Eq. 11 per distinct cluster).
std::vector<double> OracleCandidateScores(
    const recency::PropagationNetwork& network,
    const recency::RecencySource& source,
    std::span<const kb::EntityId> candidates, kb::Timestamp now,
    bool enable_propagation, const recency::PropagatorOptions& options);

// ---------------------------------------------------------------------------
// Eq. 6 / Eq. 7 — user influence from raw posting lists.
// ---------------------------------------------------------------------------

/// |D_e^u| by counting the user's occurrences in the posting list (the
/// production path keeps an incremental per-user map).
uint32_t OracleUserTweetCount(const kb::ComplementedKnowledgebase& ckb,
                              kb::EntityId e, kb::UserId u);

/// Inf(u, U_e) of Eq. 6 (tf-idf) or Eq. 7 (entropy, smoothing +1 as in
/// production) in the context of the candidate set.
double OracleInfluence(const kb::ComplementedKnowledgebase& ckb,
                       kb::UserId u, kb::EntityId entity,
                       std::span<const kb::EntityId> candidates,
                       social::InfluenceMethod method);

/// Top-k most influential users of the entity's community, ties broken by
/// ascending user id (the production tie-break). top_k == 0 ranks the
/// whole community.
std::vector<social::InfluentialUser> OracleTopInfluential(
    const kb::ComplementedKnowledgebase& ckb, kb::EntityId entity,
    std::span<const kb::EntityId> candidates, uint32_t top_k,
    social::InfluenceMethod method);

// ---------------------------------------------------------------------------
// Eq. 10 — WLM topical relatedness by std::set_intersection.
// ---------------------------------------------------------------------------

/// |A_a intersect A_b| via materialized std::set_intersection (no merge /
/// gallop switching).
uint32_t OracleInlinkIntersection(const kb::Knowledgebase& kb,
                                  kb::EntityId a, kb::EntityId b);

/// Eq. 10, clamped to [0, 1]; same conventions as production (self
/// relatedness 1, empty inlinks or empty intersection 0).
double OracleWlmRelatedness(const kb::Knowledgebase& kb, kb::EntityId a,
                            kb::EntityId b);

// ---------------------------------------------------------------------------
// Fuzzy candidate generation — brute-force edit-distance scan.
// ---------------------------------------------------------------------------

/// Ids of every surface form within edit distance max_edits of the
/// mention, by a full O(|surfaces|) EditDistance scan. Sorted ascending
/// (the segment index returns the same order).
std::vector<uint32_t> OracleFuzzySurfaces(const kb::Knowledgebase& kb,
                                          std::string_view mention,
                                          uint32_t max_edits);

/// The full candidate-generation contract: exact surface lookup, then the
/// brute-force fuzzy fallback with anchor counts accumulated across
/// matching surfaces, sorted by descending anchor count (stable).
std::vector<kb::Candidate> OracleGenerateCandidates(
    const kb::Knowledgebase& kb, std::string_view mention,
    uint32_t fuzzy_max_edits);

// ---------------------------------------------------------------------------
// Eq. 1 — the full scoring pipeline, composed from the oracles above.
// ---------------------------------------------------------------------------

/// Links one mention with every feature computed by the reference
/// implementations (oracle candidates, popularity share from posting-list
/// sizes, dense Eq. 11 recency, Eq. 8 interest over oracle influential
/// users and the given reachability). Applies the Appendix-D
/// `beta + gamma` rejection when options.reject_below_interest_threshold
/// is set. Mirrors core::EntityLinker::LinkMention semantics exactly.
core::MentionLinkResult OracleLinkMention(
    const kb::Knowledgebase& kb, const kb::ComplementedKnowledgebase& ckb,
    const recency::PropagationNetwork& network,
    const reach::WeightedReachability& reachability,
    std::string_view mention, kb::UserId user, kb::Timestamp now,
    const core::LinkerOptions& options);

}  // namespace mel::testing

#endif  // MEL_TESTING_ORACLE_H_
