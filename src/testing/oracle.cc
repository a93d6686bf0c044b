#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "text/edit_distance.h"
#include "util/logging.h"

namespace mel::testing {

namespace {

// Forward BFS distances from `start`, bounded by max_hops. A fresh
// dense distance array per call; kUnreachableDistance marks untouched
// nodes.
std::vector<uint32_t> ForwardBfs(const graph::DirectedGraph& g,
                                 graph::NodeId start, uint32_t max_hops) {
  std::vector<uint32_t> dist(g.num_nodes(), reach::kUnreachableDistance);
  std::vector<graph::NodeId> frontier{start};
  dist[start] = 0;
  for (uint32_t hop = 0; hop < max_hops && !frontier.empty(); ++hop) {
    std::vector<graph::NodeId> next;
    for (graph::NodeId x : frontier) {
      for (graph::NodeId y : g.OutNeighbors(x)) {
        if (dist[y] == reach::kUnreachableDistance) {
          dist[y] = hop + 1;
          next.push_back(y);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

constexpr double kEntropySmoothing = 1.0;  // matches social/influence.cc

}  // namespace

uint32_t OracleDistance(const graph::DirectedGraph& g, graph::NodeId u,
                        graph::NodeId v, uint32_t max_hops) {
  return ForwardBfs(g, u, max_hops)[v];
}

reach::ReachQueryResult OracleReachQuery(const graph::DirectedGraph& g,
                                         graph::NodeId u, graph::NodeId v,
                                         uint32_t max_hops) {
  reach::ReachQueryResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  const uint32_t duv = OracleDistance(g, u, v, max_hops);
  if (duv == reach::kUnreachableDistance) return result;
  result.distance = duv;
  // Followee t lies on a shortest path iff d(t, v) == duv - 1, each
  // distance established by its own independent forward BFS (the
  // production backends get all of them from one backward BFS).
  for (graph::NodeId t : g.OutNeighbors(u)) {
    if (t == v || OracleDistance(g, t, v, max_hops) == duv - 1) {
      result.followees.push_back(t);
    }
  }
  return result;
}

double OracleReachScore(const graph::DirectedGraph& g, graph::NodeId u,
                        graph::NodeId v, uint32_t max_hops) {
  return reach::WeightedScore(OracleReachQuery(g, u, v, max_hops),
                              g.OutDegree(u), u == v);
}

uint32_t OracleRecentCount(const kb::ComplementedKnowledgebase& ckb,
                           kb::EntityId e, kb::Timestamp now,
                           kb::Timestamp tau) {
  uint32_t count = 0;
  for (const kb::Posting& p : ckb.Postings(e)) {
    if (p.time >= now - tau && p.time <= now) ++count;
  }
  return count;
}

double OracleBurstMass(const kb::ComplementedKnowledgebase& ckb,
                       kb::EntityId e, kb::Timestamp now, kb::Timestamp tau,
                       uint32_t theta1) {
  const uint32_t count = OracleRecentCount(ckb, e, now, tau);
  return count >= theta1 ? static_cast<double>(count) : 0.0;
}

std::vector<double> OraclePropagateCluster(
    const recency::PropagationNetwork& network,
    const recency::RecencySource& source, uint32_t cluster,
    kb::Timestamp now, const recency::PropagatorOptions& options) {
  auto members = network.ClusterMembers(cluster);
  const size_t m = members.size();

  std::vector<double> initial(m, 0.0);
  double total = 0;
  for (size_t i = 0; i < m; ++i) {
    initial[i] = source.BurstMass(members[i], now);
    total += initial[i];
  }
  if (total == 0 || m == 1) return initial;

  // Materialize the full m x m row-stochastic matrix P (the production
  // iteration walks sparse adjacency instead).
  std::vector<double> p(m * m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (const auto& edge : network.Neighbors(members[i])) {
      p[i * m + network.MemberIndex(edge.target)] = edge.probability;
    }
  }

  std::vector<double> current = initial;
  std::vector<double> next(m);
  const double lambda = options.lambda;
  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    double delta = 0;
    for (size_t i = 0; i < m; ++i) {
      double pulled = 0;
      for (size_t j = 0; j < m; ++j) pulled += p[i * m + j] * current[j];
      next[i] = lambda * initial[i] + (1 - lambda) * pulled;
      delta += std::abs(next[i] - current[i]);
    }
    current.swap(next);
    if (delta < options.convergence_epsilon) break;
  }
  return current;
}

std::vector<double> OracleCandidateScores(
    const recency::PropagationNetwork& network,
    const recency::RecencySource& source,
    std::span<const kb::EntityId> candidates, kb::Timestamp now,
    bool enable_propagation, const recency::PropagatorOptions& options) {
  std::vector<double> raw(candidates.size(), 0.0);
  if (!enable_propagation) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      raw[i] = source.BurstMass(candidates[i], now);
    }
  } else {
    std::vector<std::pair<uint32_t, std::vector<double>>> cluster_results;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const uint32_t cluster = network.Cluster(candidates[i]);
      const std::vector<double>* result = nullptr;
      for (const auto& [cid, values] : cluster_results) {
        if (cid == cluster) {
          result = &values;
          break;
        }
      }
      if (result == nullptr) {
        cluster_results.emplace_back(
            cluster,
            OraclePropagateCluster(network, source, cluster, now, options));
        result = &cluster_results.back().second;
      }
      raw[i] = (*result)[network.MemberIndex(candidates[i])];
    }
  }
  double total = 0;
  for (double v : raw) total += v;
  if (total > 0) {
    for (double& v : raw) v /= total;
  }
  return raw;
}

uint32_t OracleUserTweetCount(const kb::ComplementedKnowledgebase& ckb,
                              kb::EntityId e, kb::UserId u) {
  uint32_t count = 0;
  for (const kb::Posting& p : ckb.Postings(e)) {
    if (p.user == u) ++count;
  }
  return count;
}

namespace {

double OracleDiscriminativeness(const kb::ComplementedKnowledgebase& ckb,
                                kb::UserId u,
                                std::span<const kb::EntityId> candidates,
                                social::InfluenceMethod method) {
  if (method == social::InfluenceMethod::kTfIdf) {
    uint32_t mentioned = 0;
    for (kb::EntityId e : candidates) {
      if (OracleUserTweetCount(ckb, e, u) > 0) ++mentioned;
    }
    if (mentioned == 0) return 0;
    return std::log(static_cast<double>(candidates.size()) / mentioned);
  }
  double total = 0;
  for (kb::EntityId e : candidates) total += OracleUserTweetCount(ckb, e, u);
  if (total == 0) return 0;
  double entropy = 0;
  for (kb::EntityId e : candidates) {
    const uint32_t c = OracleUserTweetCount(ckb, e, u);
    if (c == 0) continue;
    const double p = c / total;
    entropy -= p * std::log(p);
  }
  return 1.0 / (entropy + kEntropySmoothing);
}

}  // namespace

double OracleInfluence(const kb::ComplementedKnowledgebase& ckb,
                       kb::UserId u, kb::EntityId entity,
                       std::span<const kb::EntityId> candidates,
                       social::InfluenceMethod method) {
  const size_t community_tweets = ckb.Postings(entity).size();
  if (community_tweets == 0) return 0;
  const uint32_t user_tweets = OracleUserTweetCount(ckb, entity, u);
  if (user_tweets == 0) return 0;
  const double share =
      static_cast<double>(user_tweets) / static_cast<double>(community_tweets);
  return share * OracleDiscriminativeness(ckb, u, candidates, method);
}

std::vector<social::InfluentialUser> OracleTopInfluential(
    const kb::ComplementedKnowledgebase& ckb, kb::EntityId entity,
    std::span<const kb::EntityId> candidates, uint32_t top_k,
    social::InfluenceMethod method) {
  // Rebuild the community U_e from the raw posting list (the production
  // path maintains it incrementally).
  std::map<kb::UserId, uint32_t> community;
  for (const kb::Posting& p : ckb.Postings(entity)) ++community[p.user];

  std::vector<social::InfluentialUser> scored;
  scored.reserve(community.size());
  for (const auto& [user, count] : community) {
    (void)count;
    scored.push_back(social::InfluentialUser{
        user, OracleInfluence(ckb, user, entity, candidates, method)});
  }
  std::sort(scored.begin(), scored.end(),
            [](const social::InfluentialUser& a,
               const social::InfluentialUser& b) {
              if (a.influence != b.influence) return a.influence > b.influence;
              return a.user < b.user;
            });
  if (top_k != 0 && top_k < scored.size()) scored.resize(top_k);
  return scored;
}

uint32_t OracleInlinkIntersection(const kb::Knowledgebase& kb,
                                  kb::EntityId a, kb::EntityId b) {
  auto ia = kb.Inlinks(a);
  auto ib = kb.Inlinks(b);
  std::vector<kb::EntityId> inter;
  std::set_intersection(ia.begin(), ia.end(), ib.begin(), ib.end(),
                        std::back_inserter(inter));
  return static_cast<uint32_t>(inter.size());
}

double OracleWlmRelatedness(const kb::Knowledgebase& kb, kb::EntityId a,
                            kb::EntityId b) {
  if (a == b) return 1.0;
  const double na = static_cast<double>(kb.Inlinks(a).size());
  const double nb = static_cast<double>(kb.Inlinks(b).size());
  if (na == 0 || nb == 0) return 0.0;
  const double inter = static_cast<double>(OracleInlinkIntersection(kb, a, b));
  if (inter == 0) return 0.0;
  const double log_total =
      std::log(static_cast<double>(std::max<uint32_t>(2, kb.num_entities())));
  const double denom = log_total - std::log(std::min(na, nb));
  if (denom <= 0) return 1.0;
  const double rel =
      1.0 - (std::log(std::max(na, nb)) - std::log(inter)) / denom;
  return std::clamp(rel, 0.0, 1.0);
}

std::vector<uint32_t> OracleFuzzySurfaces(const kb::Knowledgebase& kb,
                                          std::string_view mention,
                                          uint32_t max_edits) {
  std::vector<uint32_t> out;
  const auto& surfaces = kb.surfaces();
  for (uint32_t sid = 0; sid < surfaces.size(); ++sid) {
    if (text::EditDistance(mention, surfaces[sid]) <= max_edits) {
      out.push_back(sid);
    }
  }
  return out;  // ascending surface id, like SegmentFuzzyIndex::Lookup
}

std::vector<kb::Candidate> OracleGenerateCandidates(
    const kb::Knowledgebase& kb, std::string_view mention,
    uint32_t fuzzy_max_edits) {
  auto exact = kb.Candidates(mention);
  if (!exact.empty()) return {exact.begin(), exact.end()};
  if (fuzzy_max_edits == 0) return {};
  std::vector<kb::Candidate> merged;
  for (uint32_t sid : OracleFuzzySurfaces(kb, mention, fuzzy_max_edits)) {
    for (const kb::Candidate& c : kb.CandidatesBySurfaceId(sid)) {
      auto it = std::find_if(
          merged.begin(), merged.end(),
          [&](const kb::Candidate& m) { return m.entity == c.entity; });
      if (it == merged.end()) {
        merged.push_back(c);
      } else {
        it->anchor_count += c.anchor_count;
      }
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const kb::Candidate& a, const kb::Candidate& b) {
                     return a.anchor_count > b.anchor_count;
                   });
  return merged;
}

core::MentionLinkResult OracleLinkMention(
    const kb::Knowledgebase& kb, const kb::ComplementedKnowledgebase& ckb,
    const recency::PropagationNetwork& network,
    const reach::WeightedReachability& reachability,
    std::string_view mention, kb::UserId user, kb::Timestamp now,
    const core::LinkerOptions& options) {
  core::MentionLinkResult result;
  result.surface = std::string(mention);

  std::vector<kb::Candidate> candidates =
      OracleGenerateCandidates(kb, mention, options.fuzzy_max_edits);
  if (candidates.empty()) return result;

  std::vector<kb::EntityId> entities;
  entities.reserve(candidates.size());
  for (const auto& c : candidates) entities.push_back(c.entity);

  // S_p (Eq. 2): tweet-count share, counts taken from posting-list sizes.
  std::vector<double> popularity(entities.size(), 0.0);
  {
    double total = 0;
    for (size_t i = 0; i < entities.size(); ++i) {
      popularity[i] = static_cast<double>(ckb.Postings(entities[i]).size());
      total += popularity[i];
    }
    if (total > 0) {
      for (double& p : popularity) p /= total;
    }
  }

  // S_r (Eq. 9 + Eq. 11): linear-scan burst mass, dense power iteration.
  const OracleRecencySource source(&ckb, options.tau, options.theta1);
  std::vector<double> recency_scores = OracleCandidateScores(
      network, source, entities, now, options.enable_recency_propagation,
      options.propagator);

  // S_in (Eq. 8): mean reachability to the oracle-ranked influential
  // users (always the online ranking — the oracle has no offline index).
  std::vector<double> interest(entities.size(), 0.0);
  {
    double total = 0;
    for (size_t i = 0; i < entities.size(); ++i) {
      auto influential =
          OracleTopInfluential(ckb, entities[i], entities,
                               options.top_k_influential,
                               options.influence_method);
      if (!influential.empty()) {
        double sum = 0;
        for (const auto& inf : influential) {
          sum += reachability.ScoreOnly(user, inf.user);
        }
        interest[i] = sum / static_cast<double>(influential.size());
      }
      total += interest[i];
    }
    if (total > 0) {
      for (double& v : interest) v /= total;
    }
  }

  std::vector<core::ScoredEntity> scored(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    core::ScoredEntity& s = scored[i];
    s.entity = entities[i];
    s.interest = interest[i];
    s.recency = recency_scores[i];
    s.popularity = popularity[i];
    s.score = options.alpha * s.interest + options.beta * s.recency +
              options.gamma * s.popularity;
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const core::ScoredEntity& a,
                      const core::ScoredEntity& b) {
                     return a.score > b.score;
                   });

  if (options.reject_below_interest_threshold) {
    const double threshold = options.beta + options.gamma;
    auto first_bad = std::find_if(scored.begin(), scored.end(),
                                  [&](const core::ScoredEntity& s) {
                                    return s.score <= threshold;
                                  });
    if (first_bad == scored.begin()) result.probable_new_entity = true;
    scored.erase(first_bad, scored.end());
  }

  if (scored.size() > options.top_k_results) {
    scored.resize(options.top_k_results);
  }
  result.ranked = std::move(scored);
  return result;
}

}  // namespace mel::testing
