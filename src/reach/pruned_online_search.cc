#include "reach/pruned_online_search.h"

#include <algorithm>
#include <numeric>

#include "graph/components.h"
#include "reach/reach_metrics.h"
#include "util/logging.h"

namespace mel::reach {

PrunedOnlineSearch::PrunedOnlineSearch(const graph::DirectedGraph* g,
                                       uint32_t max_hops,
                                       uint32_t num_intervals)
    : g_(g), max_hops_(max_hops), num_intervals_(num_intervals) {}

PrunedOnlineSearch PrunedOnlineSearch::Build(const graph::DirectedGraph* g,
                                             uint32_t max_hops,
                                             uint32_t num_intervals,
                                             uint64_t seed) {
  MEL_CHECK(num_intervals > 0);
  PrunedOnlineSearch index(g, max_hops, num_intervals);
  index.seed_ = seed;

  // Condense to the SCC DAG.
  auto scc = graph::StronglyConnectedComponents(*g);
  index.component_ = std::move(scc.component);
  index.num_components_ = scc.num_components;
  index.dag_out_.resize(index.num_components_);
  for (graph::NodeId u = 0; u < g->num_nodes(); ++u) {
    for (graph::NodeId v : g->OutNeighbors(u)) {
      uint32_t cu = index.component_[u];
      uint32_t cv = index.component_[v];
      if (cu != cv) index.dag_out_[cu].push_back(cv);
    }
  }
  for (auto& out : index.dag_out_) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

  index.BuildIntervals(seed);
  return index;
}

void PrunedOnlineSearch::BuildIntervals(uint64_t seed) {
  const uint32_t n = num_components_;
  intervals_.assign(static_cast<size_t>(num_intervals_) * n,
                    Interval{0, 0});
  Rng rng(seed);

  // DAG in-degrees to find the roots once.
  std::vector<uint32_t> in_degree(n, 0);
  for (uint32_t c = 0; c < n; ++c) {
    for (uint32_t d : dag_out_[c]) ++in_degree[d];
  }

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  for (uint32_t k = 0; k < num_intervals_; ++k) {
    Interval* labels = intervals_.data() + static_cast<size_t>(k) * n;
    std::vector<uint8_t> visited(n, 0);
    uint32_t rank = 0;

    // Randomized root and child visiting order per labeling.
    rng.Shuffle(&order);

    // Iterative post-order DFS.
    struct Frame {
      uint32_t comp;
      uint32_t next_child;
      std::vector<uint32_t> children;  // shuffled copy
    };
    std::vector<Frame> stack;
    auto visit_tree = [&](uint32_t root) {
      if (visited[root]) return;
      visited[root] = 1;
      stack.push_back(Frame{root, 0, dag_out_[root]});
      rng.Shuffle(&stack.back().children);
      labels[root].low = static_cast<uint32_t>(-1);
      while (!stack.empty()) {
        Frame& frame = stack.back();
        if (frame.next_child < frame.children.size()) {
          uint32_t child = frame.children[frame.next_child++];
          if (!visited[child]) {
            visited[child] = 1;
            stack.push_back(Frame{child, 0, dag_out_[child]});
            rng.Shuffle(&stack.back().children);
            labels[child].low = static_cast<uint32_t>(-1);
          }
          // Visited children (cross/forward edges in the DAG) are already
          // finished; their final low is folded in at the parent's pop.
        } else {
          uint32_t c = frame.comp;
          uint32_t my_rank = rank++;
          uint32_t low = my_rank;
          for (uint32_t child : frame.children) {
            low = std::min(low, labels[child].low);
          }
          labels[c].low = low;
          labels[c].high = my_rank;
          stack.pop_back();
        }
      }
    };
    // Roots first (in-degree 0), then any leftovers (cycle-free by SCC
    // construction, so leftovers only occur when every source was
    // shuffled behind — harmless).
    for (uint32_t c : order) {
      if (in_degree[c] == 0) visit_tree(c);
    }
    for (uint32_t c : order) visit_tree(c);
  }
}

MutationResult PrunedOnlineSearch::OnGraphMutation(const MutationContext&) {
  // The SCC condensation and post-order intervals are global properties
  // of the edge set; a single edge can merge or split components, so
  // both directions rebuild. The stored seed keeps the rebuilt interval
  // labels bit-identical to a fresh Build on the same graph.
  *this = Build(g_, max_hops_, num_intervals_, seed_);
  return MutationResult::kRebuilt;
}

bool PrunedOnlineSearch::DefinitelyUnreachable(NodeId u, NodeId v) const {
  uint32_t cu = component_[u];
  uint32_t cv = component_[v];
  if (cu == cv) return false;
  const uint32_t n = num_components_;
  for (uint32_t k = 0; k < num_intervals_; ++k) {
    const Interval& a = intervals_[static_cast<size_t>(k) * n + cu];
    const Interval& b = intervals_[static_cast<size_t>(k) * n + cv];
    // GRAIL: reach(u, v) implies interval(v) inside interval(u).
    if (b.low < a.low || b.high > a.high) return true;
  }
  return false;
}

ReachQueryResult PrunedOnlineSearch::Query(NodeId u, NodeId v) const {
  ReachQueryResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  if (DefinitelyUnreachable(u, v)) return result;

  auto& scratch = graph::BfsScratch::ThreadLocal(g_->num_nodes());
  scratch.RunBackward(*g_, v, max_hops_);
  uint32_t duv = scratch.Distance(u);
  if (duv == graph::kUnreachable) return result;
  result.distance = duv;
  for (NodeId t : g_->OutNeighbors(u)) {
    if (t == v || scratch.Distance(t) == duv - 1) {
      result.followees.push_back(t);
    }
  }
  return result;
}

ReachCountResult PrunedOnlineSearch::CountQuery(NodeId u, NodeId v) const {
  const ScoreOnlyMetrics& sm = GetScoreOnlyMetrics();
  sm.lookups->Increment();
  ReachCountResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  if (DefinitelyUnreachable(u, v)) {
    sm.unreachable->Increment();
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
    if (t == v || scratch.Distance(t) == duv - 1) ++result.followee_count;
  }
  return result;
}

double PrunedOnlineSearch::ScoreOnly(NodeId u, NodeId v) const {
  const ReachCountResult r = CountQuery(u, v);
  return WeightedScoreFromCount(r.distance, r.followee_count,
                                g_->OutDegree(u), u == v);
}

uint64_t PrunedOnlineSearch::IndexSizeBytes() const {
  return intervals_.size() * sizeof(Interval) +
         component_.size() * sizeof(uint32_t);
}

}  // namespace mel::reach
