#include "reach/naive_reachability.h"

#include "reach/reach_metrics.h"

namespace mel::reach {

NaiveReachability::NaiveReachability(const graph::DirectedGraph* g,
                                     uint32_t max_hops)
    : g_(g), max_hops_(max_hops) {}

ReachQueryResult NaiveReachability::Query(NodeId u, NodeId v) const {
  ReachQueryResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  // Backward BFS from v: Distance(x) is then d_xv for every touched x.
  auto& scratch = graph::BfsScratch::ThreadLocal(g_->num_nodes());
  scratch.RunBackward(*g_, v, max_hops_);
  uint32_t duv = scratch.Distance(u);
  if (duv == graph::kUnreachable) return result;
  result.distance = duv;
  for (NodeId t : g_->OutNeighbors(u)) {
    // Theorem 1: t participates in a duv-hop shortest path from u to v
    // iff d_tv = duv - 1 (v itself qualifies when it is a direct followee).
    if (t == v || scratch.Distance(t) == duv - 1) {
      result.followees.push_back(t);
    }
  }
  return result;
}

ReachCountResult NaiveReachability::CountQuery(NodeId u, NodeId v) const {
  const ScoreOnlyMetrics& sm = GetScoreOnlyMetrics();
  sm.lookups->Increment();
  ReachCountResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  auto& scratch = graph::BfsScratch::ThreadLocal(g_->num_nodes());
  scratch.RunBackward(*g_, v, max_hops_);
  uint32_t duv = scratch.Distance(u);
  if (duv == graph::kUnreachable) {
    sm.unreachable->Increment();
    return result;
  }
  result.distance = duv;
  for (NodeId t : g_->OutNeighbors(u)) {
    // Same Theorem-1 membership test as Query, counting instead of
    // materializing.
    if (t == v || scratch.Distance(t) == duv - 1) ++result.followee_count;
  }
  return result;
}

double NaiveReachability::ScoreOnly(NodeId u, NodeId v) const {
  const ReachCountResult r = CountQuery(u, v);
  return WeightedScoreFromCount(r.distance, r.followee_count,
                                g_->OutDegree(u), u == v);
}

}  // namespace mel::reach
