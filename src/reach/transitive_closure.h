#ifndef MEL_REACH_TRANSITIVE_CLOSURE_H_
#define MEL_REACH_TRANSITIVE_CLOSURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/directed_graph.h"
#include "reach/weighted_reachability.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mel::reach {

/// \brief Extended transitive closure for weighted reachability (Sec. 4.1.1).
///
/// Materializes the full |V| x |V| weighted-reachability matrix R (plus a
/// byte matrix of shortest-path distances), answering queries in O(1).
/// This is the paper's "unlimited storage" framework: fastest queries,
/// quadratic memory.
///
/// Two constructions are provided:
///  * kNaive       — one bounded backward BFS per node pair, the
///                    O(|V|^2 |E|) strawman of Fig. 5(b);
///  * kIncremental — Algorithm 1: level-synchronous dynamic programming
///                    over hop counts, O(H * |V| * |E|) in the worst case
///                    and far faster in practice.
class TransitiveClosureIndex : public WeightedReachability {
 public:
  enum class Construction { kNaive, kIncremental };

  /// Builds the index. The graph must outlive the index. Memory use is
  /// 5 bytes per node pair; callers are responsible for keeping |V| within
  /// budget (the Table-5 benchmark deliberately drops TC for large graphs,
  /// as the paper does).
  ///
  /// Construction runs on `pool` (nullptr = the process-wide shared
  /// pool). Both modes produce output bit-identical to a 1-thread build:
  /// kNaive is embarrassingly parallel across target nodes; kIncremental
  /// parallelizes across source rows within each hop level against a
  /// snapshot of the previous levels, so every cell's inputs are fixed
  /// before the level starts.
  static TransitiveClosureIndex Build(const graph::DirectedGraph* g,
                                      uint32_t max_hops, Construction mode,
                                      util::ThreadPool* pool = nullptr);

  ReachQueryResult Query(NodeId u, NodeId v) const override;
  /// Theorem-1 followee count from the distance matrix — no
  /// materialization, no sort.
  ReachCountResult CountQuery(NodeId u, NodeId v) const override;
  /// The score matrix is already count-free, so this is one O(1)
  /// lookup.
  double ScoreOnly(NodeId u, NodeId v) const override;
  uint64_t IndexSizeBytes() const override;
  const char* Name() const override { return "transitive-closure"; }
  uint32_t num_nodes() const override { return g_->num_nodes(); }

  /// Shortest-path distance (kUnreachableDistance beyond H hops).
  uint32_t Distance(NodeId u, NodeId v) const;

  /// \brief Online maintenance: inserts the follow edge u -> v (a user
  /// subscribing to another) and repairs the affected distances and
  /// weighted-reachability scores in place, without a rebuild.
  ///
  /// Distances can only shrink on insertion; the repair visits the
  /// O(|A| * |B|) pairs that route through the new edge (A = nodes
  /// reaching u, B = nodes reachable from v) plus the followers of nodes
  /// whose distance changed, whose followee sets (Theorem 1) may have
  /// gained members. Inserted edges are tracked in an overlay so the
  /// underlying immutable graph is never touched.
  ///
  /// Returns false (and changes nothing) when the edge already exists or
  /// is a self-loop.
  bool InsertEdge(NodeId u, NodeId v);

  /// \brief Mutate-or-invalidate contract: patches the matrix after the
  /// underlying graph itself was mutated (insert or erase).
  ///
  /// Insertions reuse the InsertEdge repair; erasures re-run one bounded
  /// forward BFS per affected source row (a row is affected only when
  /// some shortest path could have routed through the erased edge) and
  /// repair the scores of changed pairs, their sources' followers, and
  /// the whole live row of u (whose out-degree shrank). Both directions
  /// return kPatched. Must not be mixed with the overlay API: requires
  /// that no overlay edges have been inserted.
  MutationResult OnGraphMutation(const MutationContext& ctx) override;

  /// Number of followees of u including overlay edges.
  uint32_t CurrentOutDegree(NodeId u) const;

  /// Persists the index (distances, scores, overlay edges) to disk.
  Status Save(const std::string& path) const;

  /// Loads an index previously written by Save. The graph must be the
  /// same one the index was built from (node count is validated).
  static Result<TransitiveClosureIndex> Load(const std::string& path,
                                             const graph::DirectedGraph* g);

 private:
  TransitiveClosureIndex(const graph::DirectedGraph* g, uint32_t max_hops);

  void BuildNaive(util::ThreadPool* pool);
  void BuildIncremental(util::ThreadPool* pool);

  /// Recomputes score_[a][b] from the distance matrix (Theorem 1).
  void RecomputeScore(NodeId a, NodeId b);

  /// Shared repair body of InsertEdge / OnGraphMutation(kInsert); the
  /// adjacency (graph or overlay) must already contain u -> v while the
  /// distance matrix still predates it.
  void PatchInsertedEdge(NodeId u, NodeId v);

  /// Repair body of OnGraphMutation(kErase): the graph no longer has
  /// u -> v, the matrix still does.
  void PatchErasedEdge(NodeId u, NodeId v);

  /// Invokes fn(t) for every followee t of a (graph + overlay).
  template <typename Fn>
  void ForEachFollowee(NodeId a, Fn fn) const;

  /// Invokes fn(a) for every follower a of t (graph + overlay).
  template <typename Fn>
  void ForEachFollower(NodeId t, Fn fn) const;

  size_t Cell(NodeId u, NodeId v) const {
    return static_cast<size_t>(u) * n_ + v;
  }

  const graph::DirectedGraph* g_;
  uint32_t n_;
  uint32_t max_hops_;
  std::vector<float> score_;  // R(u, v); 0 when unreachable within H
  std::vector<uint8_t> dist_;  // shortest-path hops; 0 means unreachable
  // Edges inserted after Build, forward and reverse.
  std::vector<std::vector<NodeId>> overlay_out_;
  std::vector<std::vector<NodeId>> overlay_in_;
  uint64_t overlay_edge_count_ = 0;
};

}  // namespace mel::reach

#endif  // MEL_REACH_TRANSITIVE_CLOSURE_H_
