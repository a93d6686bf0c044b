#include "reach/transitive_closure.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_set>

#include "graph/bfs.h"
#include "reach/reach_metrics.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace mel::reach {

namespace {

struct TcMetrics {
  metrics::Counter* lookups;
  metrics::Counter* unreachable;
  metrics::Counter* edge_inserts;
  metrics::Counter* edge_erases;
  metrics::Histogram* repair_pairs;
  metrics::Histogram* build_ns;
};

const TcMetrics& GetTcMetrics() {
  static const TcMetrics m = [] {
    auto& reg = metrics::Registry();
    TcMetrics tm;
    tm.lookups = reg.GetCounter("reach.tc.lookups_total");
    tm.unreachable = reg.GetCounter("reach.tc.unreachable_total");
    tm.edge_inserts = reg.GetCounter("reach.tc.edge_inserts_total");
    tm.edge_erases = reg.GetCounter("reach.tc.edge_erases_total");
    tm.repair_pairs = reg.GetHistogram("reach.tc.repair_pairs");
    tm.build_ns = reg.GetHistogram("reach.tc.build_ns");
    return tm;
  }();
  return m;
}

// Row grain for the parallel constructions: rows are O(|V|)-ish each, so
// a handful per chunk amortizes the scheduling atomics without starving
// the load balancer on skewed degree distributions.
constexpr size_t kRowGrain = 8;

}  // namespace

TransitiveClosureIndex::TransitiveClosureIndex(const graph::DirectedGraph* g,
                                               uint32_t max_hops)
    : g_(g), n_(g->num_nodes()), max_hops_(max_hops) {
  MEL_CHECK_MSG(max_hops_ < 255, "distances are stored in one byte");
  score_.assign(static_cast<size_t>(n_) * n_, 0.0f);
  dist_.assign(static_cast<size_t>(n_) * n_, 0);
  overlay_out_.resize(n_);
  overlay_in_.resize(n_);
}

template <typename Fn>
void TransitiveClosureIndex::ForEachFollowee(NodeId a, Fn fn) const {
  for (NodeId t : g_->OutNeighbors(a)) fn(t);
  for (NodeId t : overlay_out_[a]) fn(t);
}

template <typename Fn>
void TransitiveClosureIndex::ForEachFollower(NodeId t, Fn fn) const {
  for (NodeId a : g_->InNeighbors(t)) fn(a);
  for (NodeId a : overlay_in_[t]) fn(a);
}

uint32_t TransitiveClosureIndex::CurrentOutDegree(NodeId u) const {
  return g_->OutDegree(u) + static_cast<uint32_t>(overlay_out_[u].size());
}

TransitiveClosureIndex TransitiveClosureIndex::Build(
    const graph::DirectedGraph* g, uint32_t max_hops, Construction mode,
    util::ThreadPool* pool) {
  if (pool == nullptr) pool = &util::ThreadPool::Shared();
  TransitiveClosureIndex index(g, max_hops);
  metrics::ScopedStageTimer build_timer(GetTcMetrics().build_ns);
  if (mode == Construction::kNaive) {
    index.BuildNaive(pool);
  } else {
    index.BuildIncremental(pool);
  }
  return index;
}

void TransitiveClosureIndex::BuildNaive(util::ThreadPool* pool) {
  // The paper's strawman: an independent traversal per node pair. One
  // bounded backward BFS per target v recovers d_uv and the followee
  // distances needed by Eq. 4 for every source u at once, and fills only
  // column v — so targets parallelize with no shared writes.
  pool->ParallelFor(0, n_, kRowGrain, [&](size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    auto& scratch = graph::BfsScratch::ThreadLocal(n_);
    scratch.RunBackward(*g_, v, max_hops_);
    for (NodeId u = 0; u < n_; ++u) {
      if (u == v) continue;
      uint32_t duv = scratch.Distance(u);
      if (duv == graph::kUnreachable) continue;
      dist_[Cell(u, v)] = static_cast<uint8_t>(duv);
      if (duv == 1) {
        score_[Cell(u, v)] = 1.0f;  // Algorithm 1 line 3 convention
        continue;
      }
      uint32_t on_shortest = 0;
      for (NodeId t : g_->OutNeighbors(u)) {
        if (scratch.Distance(t) == duv - 1) ++on_shortest;
      }
      score_[Cell(u, v)] = static_cast<float>(
          (1.0 / duv) * on_shortest / g_->OutDegree(u));
    }
  });
}

namespace {

// Per-thread scratch of the incremental build: the epoch-stamped
// accumulator counts[v] = n_v, the number of the current row's followees
// that reach v in < len hops.
struct IncrementalScratch {
  std::vector<uint32_t> counts;
  std::vector<uint64_t> epoch;
  std::vector<graph::NodeId> touched;
  uint64_t current_epoch = 0;

  static IncrementalScratch& ThreadLocal(uint32_t n) {
    thread_local std::unique_ptr<IncrementalScratch> scratch;
    if (scratch == nullptr || scratch->counts.size() != n) {
      scratch = std::make_unique<IncrementalScratch>();
      scratch->counts.assign(n, 0);
      scratch->epoch.assign(n, 0);
      scratch->current_epoch = 0;
    }
    return *scratch;
  }
};

}  // namespace

void TransitiveClosureIndex::BuildIncremental(util::ThreadPool* pool) {
  // Algorithm 1. Level len extends knowledge from levels < len: a followee
  // t of u lies on a len-hop shortest path to v iff d_tv = len - 1
  // (Theorem 1), which after len - 1 iterations is equivalent to
  // dist_[t][v] being set in an earlier level while dist_[u][v] is not.
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v : g_->OutNeighbors(u)) {
      score_[Cell(u, v)] = 1.0f;
      dist_[Cell(u, v)] = 1;
    }
  }

  // Rows are independent within a level once reads go against a snapshot
  // of the previous levels: row u only writes cells (u, *), and the
  // predicate 0 < d < len only accepts cells finalized in earlier levels.
  // (The serial build reads the live matrix, but its same-level writes
  // all carry value len and are rejected by the predicate, so reading the
  // double-buffered snapshot yields bit-identical output.)
  std::vector<uint8_t> prev_dist;
  for (uint32_t len = 2; len <= max_hops_; ++len) {
    prev_dist = dist_;
    std::atomic<bool> any_update{false};
    pool->ParallelFor(0, n_, kRowGrain, [&](size_t ui) {
      const NodeId u = static_cast<NodeId>(ui);
      auto followees = g_->OutNeighbors(u);
      if (followees.empty()) return;
      auto& scratch = IncrementalScratch::ThreadLocal(n_);
      ++scratch.current_epoch;
      scratch.touched.clear();
      for (NodeId t : followees) {
        const uint8_t* trow = prev_dist.data() + Cell(t, 0);
        for (NodeId v = 0; v < n_; ++v) {
          // Set in an earlier level <=> 0 < dist < len.
          if (trow[v] == 0 || trow[v] >= len) continue;
          if (scratch.epoch[v] != scratch.current_epoch) {
            scratch.epoch[v] = scratch.current_epoch;
            scratch.counts[v] = 0;
            scratch.touched.push_back(v);
          }
          ++scratch.counts[v];
        }
      }
      bool row_update = false;
      const double inv = 1.0 / (static_cast<double>(len) * followees.size());
      for (NodeId v : scratch.touched) {
        size_t cell = Cell(u, v);
        if (dist_[cell] != 0 || v == u) continue;  // shorter path exists
        dist_[cell] = static_cast<uint8_t>(len);
        score_[cell] = static_cast<float>(inv * scratch.counts[v]);
        row_update = true;
      }
      if (row_update) any_update.store(true, std::memory_order_relaxed);
    });
    if (!any_update.load(std::memory_order_relaxed)) break;  // diameter < H
  }
}

uint32_t TransitiveClosureIndex::Distance(NodeId u, NodeId v) const {
  if (u == v) return 0;
  uint8_t d = dist_[Cell(u, v)];
  return d == 0 ? kUnreachableDistance : d;
}

ReachQueryResult TransitiveClosureIndex::Query(NodeId u, NodeId v) const {
  const TcMetrics& tm = GetTcMetrics();
  tm.lookups->Increment();
  ReachQueryResult result;
  uint32_t duv = Distance(u, v);
  if (duv == kUnreachableDistance || u == v) {
    if (duv == kUnreachableDistance) tm.unreachable->Increment();
    result.distance = duv;
    return result;
  }
  result.distance = duv;
  // The matrix keeps distances for every pair, so F_uv can be
  // reconstructed on demand via Theorem 1 without storing it.
  ForEachFollowee(u, [&](NodeId t) {
    if (t == v || Distance(t, v) == duv - 1) result.followees.push_back(t);
  });
  std::sort(result.followees.begin(), result.followees.end());
  return result;
}

ReachCountResult TransitiveClosureIndex::CountQuery(NodeId u, NodeId v) const {
  const ScoreOnlyMetrics& sm = GetScoreOnlyMetrics();
  sm.lookups->Increment();
  ReachCountResult result;
  uint32_t duv = Distance(u, v);
  result.distance = duv;
  if (duv == kUnreachableDistance) {
    sm.unreachable->Increment();
    return result;
  }
  if (u == v) return result;
  uint32_t count = 0;
  ForEachFollowee(u, [&](NodeId t) {
    if (t == v || Distance(t, v) == duv - 1) ++count;
  });
  result.followee_count = count;
  return result;
}

double TransitiveClosureIndex::ScoreOnly(NodeId u, NodeId v) const {
  const ScoreOnlyMetrics& sm = GetScoreOnlyMetrics();
  sm.lookups->Increment();
  if (u == v) return 1.0;
  float score = score_[Cell(u, v)];
  if (score == 0.0f) sm.unreachable->Increment();
  return score;
}

void TransitiveClosureIndex::RecomputeScore(NodeId a, NodeId b) {
  size_t cell = Cell(a, b);
  uint8_t d = dist_[cell];
  if (d == 0) {
    score_[cell] = 0.0f;
    return;
  }
  if (d == 1) {
    score_[cell] = 1.0f;  // Algorithm 1 line 3 convention
    return;
  }
  uint32_t on_shortest = 0;
  ForEachFollowee(a, [&](NodeId t) {
    if (dist_[Cell(t, b)] == d - 1) ++on_shortest;
  });
  uint32_t out_degree = CurrentOutDegree(a);
  score_[cell] = out_degree == 0
                     ? 0.0f
                     : static_cast<float>((1.0 / d) * on_shortest /
                                          out_degree);
}

bool TransitiveClosureIndex::InsertEdge(NodeId u, NodeId v) {
  MEL_CHECK(u < n_ && v < n_);
  if (u == v) return false;
  if (g_->HasEdge(u, v)) return false;
  if (std::find(overlay_out_[u].begin(), overlay_out_[u].end(), v) !=
      overlay_out_[u].end()) {
    return false;
  }
  overlay_out_[u].push_back(v);
  overlay_in_[v].push_back(u);
  ++overlay_edge_count_;
  PatchInsertedEdge(u, v);
  return true;
}

void TransitiveClosureIndex::PatchInsertedEdge(NodeId u, NodeId v) {
  // Distances shrink only along paths a ~> u -> v ~> b.
  std::vector<std::pair<NodeId, uint32_t>> sources;  // (a, d(a, u))
  std::vector<std::pair<NodeId, uint32_t>> targets;  // (b, d(v, b))
  sources.emplace_back(u, 0);
  targets.emplace_back(v, 0);
  for (NodeId a = 0; a < n_; ++a) {
    if (a != u && dist_[Cell(a, u)] != 0) {
      sources.emplace_back(a, dist_[Cell(a, u)]);
    }
  }
  for (NodeId b = 0; b < n_; ++b) {
    if (b != v && dist_[Cell(v, b)] != 0) {
      targets.emplace_back(b, dist_[Cell(v, b)]);
    }
  }

  std::vector<std::pair<NodeId, NodeId>> changed;
  for (const auto& [a, da] : sources) {
    for (const auto& [b, db] : targets) {
      if (a == b) continue;
      uint32_t cand = da + 1 + db;
      if (cand > max_hops_) continue;
      size_t cell = Cell(a, b);
      if (dist_[cell] == 0 || cand < dist_[cell]) {
        dist_[cell] = static_cast<uint8_t>(cand);
        changed.emplace_back(a, b);
      }
    }
  }

  // Scores are a pure function of the distance matrix and followee sets:
  // repair (1) every changed pair, (2) followers of a changed pair's
  // source (their Theorem-1 followee set may have gained t), and (3) the
  // whole live row of u (its out-degree, Eq. 4's denominator, grew).
  std::unordered_set<uint64_t> repair;
  auto add = [&](NodeId a, NodeId b) {
    repair.insert((static_cast<uint64_t>(a) << 32) | b);
  };
  for (const auto& [t, b] : changed) {
    add(t, b);
    ForEachFollower(t, [&](NodeId a) {
      if (a != b && dist_[Cell(a, b)] != 0) add(a, b);
    });
  }
  for (NodeId b = 0; b < n_; ++b) {
    if (b != u && dist_[Cell(u, b)] != 0) add(u, b);
  }
  for (uint64_t key : repair) {
    RecomputeScore(static_cast<NodeId>(key >> 32),
                   static_cast<NodeId>(key & 0xffffffffu));
  }
  const TcMetrics& tm = GetTcMetrics();
  tm.edge_inserts->Increment();
  if (metrics::Enabled()) tm.repair_pairs->Record(repair.size());
}

void TransitiveClosureIndex::PatchErasedEdge(NodeId u, NodeId v) {
  // d(a, u) and d(v, b) never route through (u, v) — a path to u using
  // it would leave u and have to return, a path from v would have to
  // re-enter v — so the pre-erase matrix still holds them exactly.
  std::vector<std::pair<NodeId, uint32_t>> sources;  // (a, d(a, u))
  std::vector<std::pair<NodeId, uint32_t>> targets;  // (b, d(v, b))
  sources.emplace_back(u, 0);
  targets.emplace_back(v, 0);
  for (NodeId a = 0; a < n_; ++a) {
    if (a != u && dist_[Cell(a, u)] != 0) {
      sources.emplace_back(a, dist_[Cell(a, u)]);
    }
  }
  for (NodeId b = 0; b < n_; ++b) {
    if (b != v && dist_[Cell(v, b)] != 0) {
      targets.emplace_back(b, dist_[Cell(v, b)]);
    }
  }

  // A source row can only grow a distance if some shortest path from it
  // routed through the erased edge: d(a, b) == d(a, u) + 1 + d(v, b) for
  // some b. Unaffected rows keep their entire row as-is.
  std::vector<NodeId> affected;
  for (const auto& [a, da] : sources) {
    for (const auto& [b, db] : targets) {
      if (a == b) continue;
      uint32_t cand = da + 1 + db;
      if (cand > max_hops_) continue;
      if (dist_[Cell(a, b)] == cand) {
        affected.push_back(a);
        break;
      }
    }
  }

  // Deletion has no closed form (the new shortest path can be anywhere),
  // so affected rows are re-derived by one bounded forward BFS each on
  // the post-erase graph.
  std::vector<std::pair<NodeId, NodeId>> changed;
  auto& scratch = graph::BfsScratch::ThreadLocal(n_);
  for (NodeId a : affected) {
    scratch.RunForward(*g_, a, max_hops_);
    for (NodeId b = 0; b < n_; ++b) {
      if (b == a) continue;
      uint32_t nd = scratch.Distance(b);
      uint8_t fresh = nd == graph::kUnreachable ? 0 : static_cast<uint8_t>(nd);
      size_t cell = Cell(a, b);
      if (dist_[cell] != fresh) {
        dist_[cell] = fresh;
        changed.emplace_back(a, b);
      }
    }
  }

  // Same completeness argument as the insert repair: a score can change
  // only through its own distance cell, a followee's distance cell, or
  // the out-degree denominator (only u's shrank).
  std::unordered_set<uint64_t> repair;
  auto add = [&](NodeId a, NodeId b) {
    repair.insert((static_cast<uint64_t>(a) << 32) | b);
  };
  for (const auto& [t, b] : changed) {
    add(t, b);
    ForEachFollower(t, [&](NodeId a) {
      if (a != b && dist_[Cell(a, b)] != 0) add(a, b);
    });
  }
  for (NodeId b = 0; b < n_; ++b) {
    if (b != u && dist_[Cell(u, b)] != 0) add(u, b);
  }
  for (uint64_t key : repair) {
    RecomputeScore(static_cast<NodeId>(key >> 32),
                   static_cast<NodeId>(key & 0xffffffffu));
  }
  const TcMetrics& tm = GetTcMetrics();
  tm.edge_erases->Increment();
  if (metrics::Enabled()) tm.repair_pairs->Record(repair.size());
}

MutationResult TransitiveClosureIndex::OnGraphMutation(
    const MutationContext& ctx) {
  const auto& d = ctx.delta;
  MEL_CHECK(d.u < n_ && d.v < n_);
  MEL_CHECK_MSG(overlay_edge_count_ == 0,
                "graph-mutated-first contract cannot mix with overlay edges");
  if (d.op == graph::EdgeDelta::Op::kInsert) {
    MEL_CHECK(g_->HasEdge(d.u, d.v));
    PatchInsertedEdge(d.u, d.v);
  } else {
    MEL_CHECK(!g_->HasEdge(d.u, d.v));
    PatchErasedEdge(d.u, d.v);
  }
  return MutationResult::kPatched;
}

uint64_t TransitiveClosureIndex::IndexSizeBytes() const {
  return static_cast<uint64_t>(n_) * n_ * (sizeof(float) + sizeof(uint8_t));
}

namespace {
constexpr uint32_t kTcMagic = 0x4d454c54;  // "MELT"
constexpr uint32_t kTcVersion = 1;
}  // namespace

Status TransitiveClosureIndex::Save(const std::string& path) const {
  BinaryWriter writer(path);
  writer.WriteU32(kTcMagic);
  writer.WriteU32(kTcVersion);
  writer.WriteU32(n_);
  writer.WriteU32(max_hops_);
  writer.WriteVector(dist_);
  writer.WriteVector(score_);
  for (NodeId u = 0; u < n_; ++u) writer.WriteVector(overlay_out_[u]);
  return writer.Finish();
}

Result<TransitiveClosureIndex> TransitiveClosureIndex::Load(
    const std::string& path, const graph::DirectedGraph* g) {
  BinaryReader reader(path);
  uint32_t magic = reader.ReadU32();
  uint32_t version = reader.ReadU32();
  uint32_t n = reader.ReadU32();
  uint32_t max_hops = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (magic != kTcMagic) {
    return Status::InvalidArgument("not a transitive-closure index file");
  }
  if (version != kTcVersion) {
    return Status::InvalidArgument("unsupported index version");
  }
  if (n != g->num_nodes()) {
    return Status::FailedPrecondition(
        "index was built for a graph with a different node count");
  }
  TransitiveClosureIndex index(g, max_hops);
  index.dist_ = reader.ReadVector<uint8_t>();
  index.score_ = reader.ReadVector<float>();
  const size_t cells = static_cast<size_t>(n) * n;
  if (!reader.status().ok()) return reader.status();
  if (index.dist_.size() != cells || index.score_.size() != cells) {
    return Status::InvalidArgument("corrupt matrix payload");
  }
  for (NodeId u = 0; u < n; ++u) {
    index.overlay_out_[u] = reader.ReadVector<NodeId>();
    for (NodeId v : index.overlay_out_[u]) {
      if (v >= n) return Status::InvalidArgument("corrupt overlay edge");
      index.overlay_in_[v].push_back(u);
      ++index.overlay_edge_count_;
    }
  }
  if (!reader.status().ok()) return reader.status();
  return index;
}

}  // namespace mel::reach
