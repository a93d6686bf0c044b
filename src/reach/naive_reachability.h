#ifndef MEL_REACH_NAIVE_REACHABILITY_H_
#define MEL_REACH_NAIVE_REACHABILITY_H_

#include <memory>

#include "graph/bfs.h"
#include "graph/directed_graph.h"
#include "reach/weighted_reachability.h"

namespace mel::reach {

/// \brief Index-free baseline: answers each weighted reachability query
/// with one backward BFS from the target (bounded by H hops).
///
/// A single backward BFS yields both d_uv and the distances d_tv of every
/// followee t of u, which is all Eq. 4 needs:
///   F_uv = { t in F_u : d_tv = d_uv - 1 }   (Theorem 1).
///
/// O(|E|) per query — the cost the paper's indexes exist to avoid.
///
/// Queries are safe from any number of threads concurrently: BFS scratch
/// is per-thread (BfsScratch::ThreadLocal), the object itself is
/// stateless.
class NaiveReachability : public WeightedReachability {
 public:
  /// The graph must outlive this object.
  NaiveReachability(const graph::DirectedGraph* g, uint32_t max_hops);

  ReachQueryResult Query(NodeId u, NodeId v) const override;
  ReachCountResult CountQuery(NodeId u, NodeId v) const override;
  double ScoreOnly(NodeId u, NodeId v) const override;
  uint64_t IndexSizeBytes() const override { return 0; }
  const char* Name() const override { return "naive-bfs"; }
  uint32_t num_nodes() const override { return g_->num_nodes(); }

 private:
  const graph::DirectedGraph* g_;
  uint32_t max_hops_;
};

}  // namespace mel::reach

#endif  // MEL_REACH_NAIVE_REACHABILITY_H_
