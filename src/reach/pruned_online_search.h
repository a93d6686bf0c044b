#ifndef MEL_REACH_PRUNED_ONLINE_SEARCH_H_
#define MEL_REACH_PRUNED_ONLINE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "graph/bfs.h"
#include "graph/directed_graph.h"
#include "reach/weighted_reachability.h"
#include "util/random.h"

namespace mel::reach {

/// \brief The third category of the paper's related-work taxonomy
/// (Sec. 2): online search with pre-computed pruning, in the style of
/// GRAIL (Yildirim et al., PVLDB 2010).
///
/// Offline, the graph is condensed to its SCC DAG and each component
/// receives k randomized post-order intervals; node u can only reach v if
/// every interval of v's component is contained in the corresponding
/// interval of u's component. Online, a query first consults the
/// intervals — answering most unreachable pairs in O(k) — and falls back
/// to the bounded backward BFS of the naive method otherwise.
///
/// Index size is O(k * |V|): far below both the transitive closure and
/// the 2-hop cover, at the price of BFS-speed positive queries. This is
/// why the paper dismisses the category for its real-time setting; the
/// backend exists to make that comparison measurable.
class PrunedOnlineSearch : public WeightedReachability {
 public:
  /// \param g the graph (must outlive the index)
  /// \param max_hops hop bound H shared with the other backends
  /// \param num_intervals k randomized interval labelings (more = better
  ///        pruning, bigger index)
  /// \param seed randomization seed for the DFS orders
  static PrunedOnlineSearch Build(const graph::DirectedGraph* g,
                                  uint32_t max_hops,
                                  uint32_t num_intervals, uint64_t seed);

  ReachQueryResult Query(NodeId u, NodeId v) const override;
  ReachCountResult CountQuery(NodeId u, NodeId v) const override;
  double ScoreOnly(NodeId u, NodeId v) const override;
  uint64_t IndexSizeBytes() const override;
  const char* Name() const override { return "pruned-online-search"; }
  uint32_t num_nodes() const override { return g_->num_nodes(); }

  /// True when the interval labels PROVE v is unreachable from u
  /// (ignoring the hop bound). False means "maybe reachable".
  bool DefinitelyUnreachable(NodeId u, NodeId v) const;

  /// Fraction of random queries answered negatively by intervals alone —
  /// diagnostics for the pruning power.
  uint32_t num_components() const { return num_components_; }

  /// \brief Mutate-or-invalidate contract: both insert and erase rebuild
  /// the SCC condensation and interval labels (they are global graph
  /// properties with no sound local patch), reusing the stored build
  /// seed so the rebuilt index is bit-identical to a fresh Build. The
  /// BFS fallback already reads the live graph.
  MutationResult OnGraphMutation(const MutationContext& ctx) override;

 private:
  PrunedOnlineSearch(const graph::DirectedGraph* g, uint32_t max_hops,
                     uint32_t num_intervals);

  struct Interval {
    uint32_t low;
    uint32_t high;  // post-order rank; contains() is low_a <= low_b &&
                    // high_b <= high_a
  };

  void BuildIntervals(uint64_t seed);

  const graph::DirectedGraph* g_;
  uint32_t max_hops_;
  uint32_t num_intervals_;
  uint64_t seed_ = 0;  // kept for rebuild-on-mutation
  uint32_t num_components_ = 0;
  std::vector<uint32_t> component_;  // node -> SCC id
  // intervals_[k * num_components_ + c] = k-th interval of component c.
  std::vector<Interval> intervals_;
  // Condensed DAG adjacency (component -> out components).
  std::vector<std::vector<uint32_t>> dag_out_;
};

}  // namespace mel::reach

#endif  // MEL_REACH_PRUNED_ONLINE_SEARCH_H_
