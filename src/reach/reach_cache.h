#ifndef MEL_REACH_REACH_CACHE_H_
#define MEL_REACH_REACH_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/directed_graph.h"
#include "reach/weighted_reachability.h"

namespace mel::reach {

/// \brief Sharded read-through cache in front of a weighted-reachability
/// backend, memoizing (u, v) -> ReachQueryResult and, separately,
/// (u, v) -> (distance, |F_uv|) for the count-only fast path.
///
/// The S_in stage (Eq. 4 via Eq. 8) asks for reachability from the
/// querying user to each candidate's top-k influential users — and the
/// influential users of popular candidates repeat across mentions, so a
/// BFS-priced backend (NaiveReachability, PrunedOnlineSearch) pays the
/// same traversal over and over. This wrapper answers repeats from a
/// hash map instead; it is pointless in front of the O(1) transitive
/// closure and of marginal use before the 2-hop cover.
///
/// Count entries pack (distance, count) into one uint64 — far smaller
/// than a materialized followee vector, so the same byte budget holds
/// many more of them. A CountQuery miss that finds the pair in the full
/// result map derives the count from it instead of hitting the backend.
///
/// Concurrency: each shard is guarded by its own mutex, so readers on
/// different shards never contend; the underlying backend must be safe
/// for concurrent reads (all of them are, post per-thread BFS scratch).
/// Hit/miss/eviction counts are exported as `reach.cache.*` metrics and
/// the live payload footprint as the `reach.cache.bytes` gauge.
///
/// Capacity is bounded per shard (each map separately); an insert into a
/// full map clears that map first (cheap, and repeat-heavy workloads
/// refill the hot pairs immediately). The cache snapshots a static
/// graph — call Invalidate() after any online graph mutation.
class CachedReachability : public WeightedReachability {
 public:
  struct Options {
    uint32_t num_shards = 16;          // rounded up to a power of two
    size_t max_entries_per_shard = 1 << 16;  // 0 = unbounded
  };

  /// Neither pointer is owned; both must outlive the cache. The graph is
  /// needed to convert cached query results into Eq.-4 scores (|F_u|).
  CachedReachability(const WeightedReachability* base,
                     const graph::DirectedGraph* g, Options options);
  CachedReachability(const WeightedReachability* base,
                     const graph::DirectedGraph* g)
      : CachedReachability(base, g, Options()) {}
  ~CachedReachability() override;

  double Score(NodeId u, NodeId v) const override;
  ReachQueryResult Query(NodeId u, NodeId v) const override;
  ReachCountResult CountQuery(NodeId u, NodeId v) const override;
  double ScoreOnly(NodeId u, NodeId v) const override;
  uint64_t IndexSizeBytes() const override;
  const char* Name() const override { return name_.c_str(); }
  uint32_t num_nodes() const override { return g_->num_nodes(); }

  /// Drops every cached entry (e.g. after an edge insertion).
  void Invalidate();

  /// Precise invalidation: drops only entries (a, b) the mutation of
  /// edge (u, v) can affect — a reaches u and v reaches b within the hop
  /// bound (the pair can route through the edge), or a == u (whose
  /// out-degree, Eq. 4's denominator, changed). Everything else is
  /// provably still exact and stays cached.
  void InvalidateAffected(const MutationContext& ctx);

  /// Mutate-or-invalidate contract: runs InvalidateAffected. The cache
  /// deliberately does NOT forward the mutation to the wrapped backend —
  /// register the backend with the maintainer separately, before the
  /// cache, so it is patched first.
  MutationResult OnGraphMutation(const MutationContext& ctx) override;

  /// Entries currently cached (both maps), summed over shards
  /// (approximate under concurrent writes).
  size_t ApproxEntries() const;

  /// Payload bytes of the live entries, summed over shards — what the
  /// reach.cache.bytes gauge reports (excludes hash bucket arrays, which
  /// IndexSizeBytes adds on top).
  uint64_t ApproxPayloadBytes() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, ReachQueryResult> entries;
    // (distance << 32) | followee_count, keyed like `entries`.
    std::unordered_map<uint64_t, uint64_t> count_entries;
    // Payload bytes of both maps' live entries (nodes + followee heap).
    uint64_t payload_bytes = 0;
  };

  Shard& ShardFor(uint64_t key) const {
    // Multiplicative mix so that dense node-id ranges spread over shards.
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return shards_[(h >> 48) & shard_mask_];
  }

  const WeightedReachability* base_;
  const graph::DirectedGraph* g_;
  size_t max_entries_per_shard_;
  uint64_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
  std::string name_;
};

}  // namespace mel::reach

#endif  // MEL_REACH_REACH_CACHE_H_
