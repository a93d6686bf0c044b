#include "reach/two_hop_index.h"

#include <algorithm>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

#include "graph/stats.h"
#include "reach/reach_metrics.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/sorted_intersect.h"

namespace mel::reach {

namespace {

constexpr uint32_t kInf = kUnreachableDistance;

bool Contains(const std::vector<NodeId>& vec, NodeId x) {
  return std::find(vec.begin(), vec.end(), x) != vec.end();
}

struct TwoHopMetrics {
  metrics::Counter* lookups;
  metrics::Counter* unreachable;
  metrics::Histogram* labels_scanned;
  metrics::Histogram* build_ns;
};

const TwoHopMetrics& GetTwoHopMetrics() {
  static const TwoHopMetrics m = [] {
    auto& reg = metrics::Registry();
    TwoHopMetrics hm;
    hm.lookups = reg.GetCounter("reach.twohop.lookups_total");
    hm.unreachable = reg.GetCounter("reach.twohop.unreachable_total");
    hm.labels_scanned = reg.GetHistogram("reach.twohop.labels_scanned");
    hm.build_ns = reg.GetHistogram("reach.twohop.build_ns");
    return hm;
  }();
  return m;
}

// Metric bundles resolved once at namespace scope instead of per query:
// the function-local statics above still pay a guard-variable load on
// every call, which shows up on the ScoreOnly hot path (millions of
// lookups per eval run). Both getters are self-initializing, so the
// dynamic-init order here is safe.
const TwoHopMetrics& g_twohop_metrics = GetTwoHopMetrics();
const ScoreOnlyMetrics& g_scoreonly_metrics = GetScoreOnlyMetrics();

/// Slot of the dense hub table: the walk source's distance to hub w and
/// the position of that out-label within out_labels(source). Unset
/// slots hold {kInf, kNoSpan}; the degenerate hub w = source holds
/// {0, kNoSpan}, a distance with no followee span.
struct HubSlot {
  uint32_t dist;
  uint32_t pos;
};
constexpr uint32_t kNoSpan = std::numeric_limits<uint32_t>::max();
constexpr HubSlot kUnsetSlot = {kInf, kNoSpan};

/// Per-thread query scratch: the dense hub table of the one-to-many
/// walk, contributing-span indices, k-way merge cursors, and an
/// epoch-marked seen array for union counting. Reused across queries so
/// the steady-state hot path never allocates (vectors keep their
/// capacity between calls).
struct QueryScratch {
  std::vector<HubSlot> hubs;  // all kUnsetSlot whenever no walk is open
  bool walk_open = false;
  std::vector<uint64_t> spans;  // buffer; HubWalk::CollectSpans sizes it
  std::vector<uint64_t> cursors;
  std::vector<uint32_t> seen;
  uint32_t seen_epoch = 0;
};

QueryScratch& TlsQueryScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

/// \brief One-to-many 2-hop query from a fixed source u (the pruned-
/// landmark-labeling one-to-many query, Akiba et al., SIGMOD 2013).
///
/// The constructor scatters L_out(u) into the thread's dense hub table;
/// each target v then costs one scan of L_in(v) — a branchless pass for
/// d_uv and, when the score needs |F_uv|, a second pass collecting the
/// hubs that achieve it. The destructor resets exactly the slots the
/// constructor set, so the table is all-unset between walks and serves
/// every index the thread queries, whatever its node count. At most one
/// walk per thread is open at a time.
class HubWalk {
 public:
  HubWalk(const TwoHopIndex& index, NodeId u, uint32_t max_hops,
          QueryScratch& scratch)
      : index_(index),
        u_(u),
        max_hops_(max_hops),
        outs_(index.out_labels(u)),
        base_(index.out_offset(u)),
        scratch_(scratch),
        unrecorded_scatter_(outs_.size()) {
    const uint32_t n = index.num_nodes();
    MEL_CHECK(u < n);
    MEL_CHECK(!scratch.walk_open);
    scratch.walk_open = true;
    if (scratch.hubs.size() < n) scratch.hubs.resize(n, kUnsetSlot);
    hubs_ = scratch.hubs.data();
    for (uint32_t i = 0; i < outs_.size(); ++i) {
      hubs_[outs_[i].node] = HubSlot{outs_[i].dist, i};
    }
    // L_out(u) never lists u itself, so this cannot clobber a span.
    hubs_[u] = HubSlot{0, kNoSpan};
  }

  ~HubWalk() {
    for (const TwoHopIndex::OutSpan& o : outs_) hubs_[o.node] = kUnsetSlot;
    hubs_[u_] = kUnsetSlot;
    scratch_.walk_open = false;
  }

  HubWalk(const HubWalk&) = delete;
  HubWalk& operator=(const HubWalk&) = delete;

  /// d_uv for v != u, or kInf when v is not reachable within the hop
  /// bound. Every hub of L_in(v) meets the table (the degenerate hub
  /// w = u sits in it with distance 0); the degenerate hub w = v is
  /// v's own slot, since L_in(v) never lists v.
  uint32_t MinDistance(NodeId v) {
    const auto ins = index_.in_labels(v);
    if (metrics::Enabled()) {
      // The scatter is charged to the first target, so the histogram's
      // sum is every label entry read and its count the pairs answered.
      g_twohop_metrics.labels_scanned->Record(ins.size() +
                                              unrecorded_scatter_);
      unrecorded_scatter_ = 0;
    }
    // 64-bit sums: an unset slot's kInf plus a label distance must not
    // wrap into a small distance.
    uint64_t best = hubs_[v].dist;
    for (const TwoHopIndex::InLabel& l : ins) {
      best = std::min(best, uint64_t{hubs_[l.node].dist} + l.dist);
    }
    return best > max_hops_ ? kInf : static_cast<uint32_t>(best);
  }

  /// The GLOBAL out-entry indices of every hub that achieves `dmin` =
  /// MinDistance(v) (Theorem 2), in ascending entry order except that
  /// the degenerate hub w = v, if it qualifies, comes last. A view into
  /// the thread's span buffer, valid until the next CollectSpans.
  std::span<const uint64_t> CollectSpans(NodeId v, uint32_t dmin) {
    const auto ins = index_.in_labels(v);
    std::vector<uint64_t>& buffer = scratch_.spans;
    if (buffer.size() < ins.size() + 1) buffer.resize(ins.size() + 1);
    uint64_t* spans = buffer.data();
    // Branchless: every label writes the next slot and only a meeting
    // hub at dmin advances past it — whether a hub qualifies is data-
    // dependent, and a branch on it mispredicts a large share of labels.
    size_t n = 0;
    for (const TwoHopIndex::InLabel& l : ins) {
      const HubSlot slot = hubs_[l.node];
      spans[n] = base_ + slot.pos;
      n += (slot.pos != kNoSpan) & (uint64_t{slot.dist} + l.dist == dmin);
    }
    spans[n] = base_ + hubs_[v].pos;
    n += hubs_[v].dist == dmin;
    return {spans, n};
  }

 private:
  const TwoHopIndex& index_;
  const NodeId u_;
  const uint32_t max_hops_;
  const std::span<const TwoHopIndex::OutSpan> outs_;
  const uint64_t base_;
  QueryScratch& scratch_;
  HubSlot* hubs_;
  uint64_t unrecorded_scatter_;
};

}  // namespace

TwoHopIndex::TwoHopIndex(const graph::DirectedGraph* g, uint32_t max_hops)
    : g_(g), max_hops_(max_hops) {}

TwoHopIndex TwoHopIndex::Build(const graph::DirectedGraph* g,
                               uint32_t max_hops, util::ThreadPool* pool) {
  if (pool == nullptr) pool = &util::ThreadPool::Shared();
  TwoHopIndex index(g, max_hops);
  index.build_in_labels_.resize(g->num_nodes());
  index.build_out_labels_.resize(g->num_nodes());
  metrics::ScopedStageTimer build_timer(g_twohop_metrics.build_ns);
  // The backward pass reads build_in_labels_[landmark] and appends to
  // out-labels of other nodes; the forward pass reads
  // build_out_labels_[landmark] and appends to in-labels of other nodes
  // (each skips the landmark itself). Their footprints are disjoint, so
  // the two BFS of one landmark run concurrently — each with its own
  // scratch — while the landmark order itself stays sequential.
  LandmarkScratch backward_scratch(g->num_nodes());
  LandmarkScratch forward_scratch(g->num_nodes());
  // Algorithm 2 line 1: landmarks in descending degree order, so that hub
  // nodes prune the most subsequent label entries.
  const auto degrees = graph::TotalDegrees(*g);
  for (NodeId landmark : graph::NodesByDegreeDescending(*g, degrees)) {
    pool->ParallelFor(0, 2, 1, [&](size_t pass) {
      if (pass == 0) {
        index.ProcessLandmarkBackward(landmark, backward_scratch);
      } else {
        index.ProcessLandmarkForward(landmark, forward_scratch);
      }
    });
  }
  // Canonical ordering enables two-pointer intersection at query time.
  // Nodes are independent here, so the sort/dedup pass fans out.
  const uint32_t n = g->num_nodes();
  pool->ParallelFor(0, n, 64, [&](size_t v) {
    auto& ins = index.build_in_labels_[v];
    std::sort(ins.begin(), ins.end(),
              [](const InLabel& a, const InLabel& b) {
                return a.node < b.node;
              });
    auto& outs = index.build_out_labels_[v];
    std::sort(outs.begin(), outs.end(),
              [](const BuildOutLabel& a, const BuildOutLabel& b) {
                return a.node < b.node;
              });
    for (auto& label : outs) {
      std::sort(label.followees.begin(), label.followees.end());
    }
  });
  index.FinalizeArenas();
  return index;
}

void TwoHopIndex::FinalizeArenas() {
  const uint32_t n = g_->num_nodes();
  std::vector<uint64_t> in_offsets(n + 1, 0);
  std::vector<uint64_t> out_offsets(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    in_offsets[v + 1] = in_offsets[v] + build_in_labels_[v].size();
    out_offsets[v + 1] = out_offsets[v] + build_out_labels_[v].size();
  }
  std::vector<InLabel> in_entries(in_offsets[n]);
  std::vector<OutSpan> out_entries(out_offsets[n]);
  std::vector<uint64_t> followee_offsets(out_offsets[n] + 1, 0);

  uint64_t followee_total = 0;
  {
    uint64_t e = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (const BuildOutLabel& label : build_out_labels_[v]) {
        followee_offsets[e] = followee_total;
        followee_total += label.followees.size();
        ++e;
      }
    }
    followee_offsets[out_offsets[n]] = followee_total;
  }
  std::vector<NodeId> followee_arena(followee_total);

  for (NodeId v = 0; v < n; ++v) {
    std::copy(build_in_labels_[v].begin(), build_in_labels_[v].end(),
              in_entries.begin() + static_cast<ptrdiff_t>(in_offsets[v]));
    uint64_t e = out_offsets[v];
    for (const BuildOutLabel& label : build_out_labels_[v]) {
      out_entries[e] = OutSpan{label.node, label.dist};
      std::copy(label.followees.begin(), label.followees.end(),
                followee_arena.begin() +
                    static_cast<ptrdiff_t>(followee_offsets[e]));
      ++e;
    }
  }

  in_offsets_.Own(std::move(in_offsets));
  in_entries_.Own(std::move(in_entries));
  out_offsets_.Own(std::move(out_offsets));
  out_entries_.Own(std::move(out_entries));
  followee_offsets_.Own(std::move(followee_offsets));
  followee_arena_.Own(std::move(followee_arena));

  // Release the construction scratch; the arenas are the index now.
  build_in_labels_ = {};
  build_out_labels_ = {};
  PublishArenaMetrics();
  PublishMmapLoadMetrics(kLoadModeBuilt, 0,
                         util::MmapFile::Advice::kNormal);
}

void TwoHopIndex::PublishArenaMetrics() const {
  const ArenaMetrics& am = GetArenaMetrics();
  am.in_entries->Set(static_cast<int64_t>(in_entries_.size()));
  am.out_entries->Set(static_cast<int64_t>(out_entries_.size()));
  am.followee_ids->Set(static_cast<int64_t>(followee_arena_.size()));
  am.bytes->Set(static_cast<int64_t>(IndexSizeBytes()));
}

void TwoHopIndex::ProcessLandmarkBackward(NodeId landmark,
                                          LandmarkScratch& scratch) {
  auto& hub_dist = scratch.hub_dist;
  auto& in_queue = scratch.in_queue;
  // hub_dist[w] = d(w, landmark) for every hub w that queries may meet at.
  std::vector<NodeId> touched_hubs;
  for (const InLabel& il : build_in_labels_[landmark]) {
    hub_dist[il.node] = il.dist;
    touched_hubs.push_back(il.node);
  }
  hub_dist[landmark] = 0;
  touched_hubs.push_back(landmark);

  // Distance + membership query against current labels:
  // min over hubs w in L_out(s) of d_sw + d(w, landmark); has_u reports
  // whether u already belongs to the unioned followee set at that minimum.
  auto query = [&](NodeId s, NodeId u) -> std::pair<uint32_t, bool> {
    uint32_t dmin = kInf;
    bool has_u = false;
    for (const BuildOutLabel& ol : build_out_labels_[s]) {
      uint32_t hd = hub_dist[ol.node];
      if (hd == kInf) continue;
      uint32_t total = ol.dist + hd;
      if (total < dmin) {
        dmin = total;
        has_u = Contains(ol.followees, u);
      } else if (total == dmin && !has_u) {
        has_u = Contains(ol.followees, u);
      }
    }
    return {dmin, has_u};
  };

  std::vector<std::pair<NodeId, uint32_t>> queue;
  queue.emplace_back(landmark, 0);
  in_queue[landmark] = 1;
  size_t head = 0;
  while (head < queue.size()) {
    auto [u, len_u] = queue[head++];
    if (len_u >= max_hops_) continue;
    const uint32_t len = len_u + 1;
    for (NodeId s : g_->InNeighbors(u)) {
      if (s == landmark) continue;
      auto [d, has_u] = query(s, u);
      if (len < d) {
        // A strictly shorter path s -> u ~> landmark: record the landmark
        // as a hub of s, remembering followee u (Algorithm 2 lines 11-19).
        build_out_labels_[s].push_back(BuildOutLabel{landmark, len, {u}});
        if (len < max_hops_ && !in_queue[s]) {
          in_queue[s] = 1;
          queue.emplace_back(s, len);
        }
      } else if (len == d && !has_u) {
        // A new shortest path through followee u (lines 20-27). Distances
        // of s's ancestors are unchanged, so s is not re-enqueued.
        // Entries for this landmark are only appended during this BFS, so
        // if one exists it is the most recent.
        if (!build_out_labels_[s].empty() &&
            build_out_labels_[s].back().node == landmark) {
          MEL_CHECK(build_out_labels_[s].back().dist == len);
          build_out_labels_[s].back().followees.push_back(u);
        } else {
          build_out_labels_[s].push_back(BuildOutLabel{landmark, len, {u}});
        }
      }
    }
  }

  for (NodeId w : touched_hubs) hub_dist[w] = kInf;
  for (const auto& [node, len] : queue) in_queue[node] = 0;
}

void TwoHopIndex::ProcessLandmarkForward(NodeId landmark,
                                         LandmarkScratch& scratch) {
  auto& hub_dist = scratch.hub_dist;
  auto& in_queue = scratch.in_queue;
  std::vector<NodeId> touched_hubs;
  for (const BuildOutLabel& ol : build_out_labels_[landmark]) {
    hub_dist[ol.node] = ol.dist;
    touched_hubs.push_back(ol.node);
  }
  hub_dist[landmark] = 0;
  touched_hubs.push_back(landmark);

  auto query = [&](NodeId t) -> uint32_t {
    uint32_t dmin = kInf;
    for (const InLabel& il : build_in_labels_[t]) {
      uint32_t hd = hub_dist[il.node];
      if (hd == kInf) continue;
      dmin = std::min(dmin, hd + il.dist);
    }
    return dmin;
  };

  std::vector<std::pair<NodeId, uint32_t>> queue;
  queue.emplace_back(landmark, 0);
  in_queue[landmark] = 1;
  size_t head = 0;
  while (head < queue.size()) {
    auto [u, len_u] = queue[head++];
    if (len_u >= max_hops_) continue;
    const uint32_t len = len_u + 1;
    for (NodeId t : g_->OutNeighbors(u)) {
      if (t == landmark) continue;
      // L_in carries distances only; update when strictly shortened
      // (Algorithm 2 line 30).
      if (len < query(t)) {
        build_in_labels_[t].push_back(InLabel{landmark, len});
        if (len < max_hops_ && !in_queue[t]) {
          in_queue[t] = 1;
          queue.emplace_back(t, len);
        }
      }
    }
  }

  for (NodeId w : touched_hubs) hub_dist[w] = kInf;
  for (const auto& [node, len] : queue) in_queue[node] = 0;
}

ReachQueryResult TwoHopIndex::Query(NodeId u, NodeId v) const {
  const TwoHopMetrics& hm = g_twohop_metrics;
  hm.lookups->Increment();
  ReachQueryResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  QueryScratch& scratch = TlsQueryScratch();
  HubWalk walk(*this, u, max_hops_, scratch);
  const uint32_t dmin = walk.MinDistance(v);
  if (dmin == kInf) {
    hm.unreachable->Increment();
    return result;
  }
  result.distance = dmin;
  const std::span<const uint64_t> spans = walk.CollectSpans(v, dmin);
  if (spans.empty()) return result;
  if (spans.size() == 1) {
    // Followees of one label are already sorted and duplicate-free.
    const auto f = followees(spans[0]);
    result.followees.assign(f.begin(), f.end());
    return result;
  }
  // Single k-way merge over the sorted arena spans, skipping duplicates
  // as it goes — replaces the old concat + sort + std::unique pass.
  auto& cursors = scratch.cursors;
  cursors.assign(spans.size(), 0);
  for (;;) {
    NodeId next = 0;
    bool any = false;
    for (size_t k = 0; k < spans.size(); ++k) {
      const auto f = followees(spans[k]);
      if (cursors[k] < f.size() && (!any || f[cursors[k]] < next)) {
        next = f[cursors[k]];
        any = true;
      }
    }
    if (!any) break;
    result.followees.push_back(next);
    for (size_t k = 0; k < spans.size(); ++k) {
      const auto f = followees(spans[k]);
      if (cursors[k] < f.size() && f[cursors[k]] == next) ++cursors[k];
    }
  }
  return result;
}

namespace {

/// |union| over the collected arena spans, never materializing it.
/// One span is its own union; two spans use |A| + |B| − |A ∩ B| with the
/// merge/gallop kernel shared with the WLM inlink intersection; more
/// spans mark an epoch-versioned seen array — O(1) per element instead
/// of a k-way comparison per emitted node.
uint32_t CountSpanUnion(const TwoHopIndex& index,
                        std::span<const uint64_t> spans,
                        QueryScratch& scratch, uint32_t num_nodes) {
  if (spans.empty()) return 0;
  if (spans.size() == 1) {
    return static_cast<uint32_t>(index.followees(spans[0]).size());
  }
  if (spans.size() == 2) {
    const auto a = index.followees(spans[0]);
    const auto b = index.followees(spans[1]);
    return static_cast<uint32_t>(a.size() + b.size()) -
           util::SortedIntersectCount(a, b);
  }
  if (scratch.seen.size() < num_nodes) scratch.seen.resize(num_nodes, 0);
  if (++scratch.seen_epoch == 0) {
    std::fill(scratch.seen.begin(), scratch.seen.end(), 0u);
    scratch.seen_epoch = 1;
  }
  const uint32_t epoch = scratch.seen_epoch;
  uint32_t count = 0;
  for (uint64_t s : spans) {
    for (NodeId t : index.followees(s)) {
      if (scratch.seen[t] != epoch) {
        scratch.seen[t] = epoch;
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

ReachCountResult TwoHopIndex::CountQuery(NodeId u, NodeId v) const {
  const ScoreOnlyMetrics& sm = g_scoreonly_metrics;
  sm.lookups->Increment();
  ReachCountResult result;
  if (u == v) {
    result.distance = 0;
    return result;
  }
  QueryScratch& scratch = TlsQueryScratch();
  HubWalk walk(*this, u, max_hops_, scratch);
  const uint32_t dmin = walk.MinDistance(v);
  if (dmin == kInf) {
    sm.unreachable->Increment();
    return result;
  }
  result.distance = dmin;
  result.followee_count = CountSpanUnion(
      *this, walk.CollectSpans(v, dmin), scratch, g_->num_nodes());
  return result;
}

double TwoHopIndex::ScoreOnly(NodeId u, NodeId v) const {
  double score;
  TwoHopIndex::ScoreOnlyMany(u, std::span<const NodeId>(&v, 1), &score);
  return score;
}

void TwoHopIndex::ScoreOnlyMany(NodeId u, std::span<const NodeId> vs,
                                double* out) const {
  if (vs.empty()) return;
  const ScoreOnlyMetrics& sm = g_scoreonly_metrics;
  sm.lookups->Increment(vs.size());
  QueryScratch& scratch = TlsQueryScratch();
  HubWalk walk(*this, u, max_hops_, scratch);
  const uint32_t out_degree = g_->OutDegree(u);
  for (size_t i = 0; i < vs.size(); ++i) {
    const NodeId v = vs[i];
    if (v == u) {
      out[i] = 1.0;
      continue;
    }
    const uint32_t dmin = walk.MinDistance(v);
    if (dmin == kInf) {
      sm.unreachable->Increment();
      out[i] = 0.0;
      continue;
    }
    // Eq. 4 ignores the followee count at distance 1 and for sink users,
    // so the union is only ever counted when it contributes to the score.
    if (dmin == 1) {
      out[i] = 1.0;
      continue;
    }
    if (out_degree == 0) {
      out[i] = 0.0;
      continue;
    }
    const uint32_t count = CountSpanUnion(
        *this, walk.CollectSpans(v, dmin), scratch, g_->num_nodes());
    out[i] = WeightedScoreFromCount(dmin, count, out_degree,
                                    /*same_node=*/false);
  }
}

uint64_t TwoHopIndex::TotalLabelEntries() const {
  return in_entries_.size() + out_entries_.size();
}

MutationResult TwoHopIndex::OnGraphMutation(const MutationContext& ctx) {
  if (ctx.delta.op == graph::EdgeDelta::Op::kErase) {
    // Decremental cover maintenance is unsound: the new shortest path of
    // an affected pair was non-shortest before the erase and therefore
    // appears in no label. Rebuild from the mutated graph.
    *this = Build(g_, max_hops_, ctx.pool);
    return MutationResult::kRebuilt;
  }
  PatchInsertedEdge(ctx);
  return MutationResult::kPatched;
}

void TwoHopIndex::PatchInsertedEdge(const MutationContext& ctx) {
  const NodeId u = ctx.delta.u;
  const NodeId v = ctx.delta.v;
  // Exact post-insert BFS distances; d(a, u) and d(v, b) cannot route
  // through (u, v) — such a walk revisits an endpoint — so they equal
  // the PRE-insert values too.
  const std::vector<uint32_t>& to_u = *ctx.dist_to_u;      // d(a, u)
  const std::vector<uint32_t>& from_v = *ctx.dist_from_v;  // d(v, b)
  const uint32_t n = g_->num_nodes();

  // Unpack the arenas into the per-node build vectors. The arena members
  // stay untouched until FinalizeArenas, so label queries against *this
  // keep answering with PRE-insert distances — the Q_old oracle the
  // closed form needs.
  build_in_labels_.assign(n, {});
  build_out_labels_.assign(n, {});
  for (NodeId x = 0; x < n; ++x) {
    const auto ins = in_labels(x);
    build_in_labels_[x].assign(ins.begin(), ins.end());
    const auto outs = out_labels(x);
    auto& bo = build_out_labels_[x];
    bo.reserve(outs.size());
    for (size_t i = 0; i < outs.size(); ++i) {
      const auto f = followees(out_offsets_[x] + i);
      bo.push_back(BuildOutLabel{outs[i].node, outs[i].dist,
                                 {f.begin(), f.end()}});
    }
  }

  QueryScratch& scratch = TlsQueryScratch();
  auto old_dist = [&](NodeId s, NodeId t) -> uint32_t {
    return s == t ? 0 : HubWalk(*this, s, max_hops_, scratch).MinDistance(t);
  };
  auto through = [&](NodeId s, NodeId t) -> uint32_t {
    if (to_u[s] == kInf || from_v[t] == kInf) return kInf;
    const uint32_t c = to_u[s] + 1 + from_v[t];
    return c > max_hops_ ? kInf : c;
  };
  auto new_dist = [&](NodeId s, NodeId t) -> uint32_t {
    return std::min(old_dist(s, t), through(s, t));
  };
  // Theorem-1 followee set of the patched label (s, hub): followees at
  // new distance dnew - 1 from the hub.
  auto exact_followees = [&](NodeId s, NodeId hub, uint32_t dnew) {
    std::vector<NodeId> f;
    for (NodeId t : g_->OutNeighbors(s)) {
      const uint32_t dt = new_dist(t, hub);
      if (dt != kInf && dt + 1 == dnew) f.push_back(t);
    }
    return f;  // OutNeighbors is sorted, so f is too
  };

  // (a) Fix existing out-labels (s, h, d, F) that the edge can affect:
  // s reaches u, v reaches h, and the through-edge candidate is <= d. A
  // candidate of exactly d leaves the distance alone but can add tied
  // shortest paths, so F is recomputed for it as well; a candidate of
  // d + 1 or more cannot even touch F (every followee's through-edge
  // distance is >= candidate - 1 >= d).
  for (NodeId s = 0; s < n; ++s) {
    if (to_u[s] == kInf) continue;
    for (BuildOutLabel& label : build_out_labels_[s]) {
      const uint32_t cand = through(s, label.node);
      if (cand > label.dist) continue;  // kInf compares greater too
      label.dist = std::min(label.dist, cand);
      label.followees = exact_followees(s, label.node, label.dist);
    }
  }

  // (b) Fix existing in-labels (h, d) of t: h reaches u, v reaches t.
  for (NodeId t = 0; t < n; ++t) {
    if (from_v[t] == kInf) continue;
    for (InLabel& label : build_in_labels_[t]) {
      const uint32_t cand = through(label.node, t);
      if (cand < label.dist) label.dist = cand;
    }
  }

  // (c) Restore the cover for pairs routing through the new edge by
  // injecting hub u across the affected region (upserts keep the
  // by-hub-node sort order).
  auto upsert_out = [&](NodeId owner, NodeId hub, uint32_t dist,
                        std::vector<NodeId> f) {
    auto& outs = build_out_labels_[owner];
    auto it = std::lower_bound(
        outs.begin(), outs.end(), hub,
        [](const BuildOutLabel& l, NodeId x) { return l.node < x; });
    if (it != outs.end() && it->node == hub) {
      it->dist = dist;
      it->followees = std::move(f);
    } else {
      outs.insert(it, BuildOutLabel{hub, dist, std::move(f)});
    }
  };
  auto upsert_in = [&](NodeId owner, NodeId hub, uint32_t dist) {
    auto& ins = build_in_labels_[owner];
    auto it = std::lower_bound(
        ins.begin(), ins.end(), hub,
        [](const InLabel& l, NodeId x) { return l.node < x; });
    if (it != ins.end() && it->node == hub) {
      it->dist = std::min(it->dist, dist);
    } else {
      ins.insert(it, InLabel{hub, dist});
    }
  };

  // Out-label (a, u) on every node reaching u: d(a, u) is unchanged and
  // its followees are the first hops toward u (all within the BFS
  // bound, since to_u[t] = to_u[a] - 1 <= H - 1).
  for (NodeId a = 0; a < n; ++a) {
    if (a == u || to_u[a] == kInf) continue;
    std::vector<NodeId> f;
    for (NodeId t : g_->OutNeighbors(a)) {
      if (to_u[t] != kInf && to_u[t] + 1 == to_u[a]) f.push_back(t);
    }
    upsert_out(a, u, to_u[a], std::move(f));
  }
  // The edge itself: d(u, v) = 1 with F = {v}.
  upsert_out(u, v, 1, {v});
  for (NodeId b = 0; b < n; ++b) {
    if (from_v[b] == kInf) continue;
    // In-label (u -> b) meets the (a, u) out-labels above. Guarded by
    // the hop bound: 1 + from_v[b] can reach H + 1.
    if (b != u) {
      const uint32_t through_b =
          from_v[b] + 1 > max_hops_ ? kInf : from_v[b] + 1;
      const uint32_t dub = std::min(old_dist(u, b), through_b);
      if (dub <= max_hops_) upsert_in(b, u, dub);
    }
    // In-label (v -> b) meets the (u, v, 1, {v}) out-label: the
    // degenerate source-hub u in L_in(b) carries no followee span, so
    // pairs (u, b) need hub v to contribute F = {v}.
    if (b != v) upsert_in(b, v, from_v[b]);
  }

  FinalizeArenas();
  mapping_.reset();
}

namespace {
constexpr uint32_t kTwoHopMagic = 0x4d454c32;  // "MEL2"
constexpr uint32_t kTwoHopVersion = 2;  // v2: arena-flattened labels

// Offsets arrays must be monotone prefix sums covering their arena.
bool ValidOffsets(std::span<const uint64_t> offsets, uint64_t expect_size,
                  uint64_t arena_size) {
  if (offsets.size() != expect_size) return false;
  if (offsets.front() != 0 || offsets.back() != arena_size) return false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return true;
}

}  // namespace

Status TwoHopIndex::Save(const std::string& path) const {
  const Mel3BlockDesc blocks[] = {
      Mel3BlockDesc::Of(Mel3BlockKind::kInOffsets, in_offsets_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kInEntries, in_entries_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kOutOffsets, out_offsets_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kOutEntries, out_entries_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kFolloweeOffsets,
                        followee_offsets_.view()),
      Mel3BlockDesc::Of(Mel3BlockKind::kFolloweeArena,
                        followee_arena_.view()),
  };
  return WriteMel3File(path, kTwoHopMagic, kTwoHopVersion,
                       static_cast<uint32_t>(g_->num_nodes()), max_hops_,
                       blocks);
}

Status TwoHopIndex::ValidateOffsets() const {
  const uint64_t n = g_->num_nodes();
  if (!ValidOffsets(in_offsets_.view(), n + 1, in_entries_.size()) ||
      !ValidOffsets(out_offsets_.view(), n + 1, out_entries_.size()) ||
      !ValidOffsets(followee_offsets_.view(), out_entries_.size() + 1,
                    followee_arena_.size())) {
    return Status::InvalidArgument("corrupt arena offsets");
  }
  return Status::OK();
}

Status TwoHopIndex::ValidateNodeIds() const {
  const uint32_t n = g_->num_nodes();
  for (const InLabel& label : in_entries_) {
    if (label.node >= n) {
      return Status::InvalidArgument("corrupt label node id");
    }
  }
  for (const OutSpan& label : out_entries_) {
    if (label.node >= n) {
      return Status::InvalidArgument("corrupt label node id");
    }
  }
  for (NodeId id : followee_arena_) {
    if (id >= n) {
      return Status::InvalidArgument("corrupt followee node id");
    }
  }
  return Status::OK();
}

Result<TwoHopIndex> TwoHopIndex::Load(const std::string& path,
                                      const graph::DirectedGraph* g) {
  util::MmapLoadOptions opts;
  opts.map.advice = util::MmapFile::Advice::kSequential;
  opts.verify_checksums = true;
  auto mapped = LoadMapped(path, g, opts);
  if (!mapped.ok()) return mapped.status();
  TwoHopIndex index = std::move(mapped).value();
  index.MaterializeOwned();
  return index;
}

Result<TwoHopIndex> TwoHopIndex::LoadMapped(
    const std::string& path, const graph::DirectedGraph* g,
    const util::MmapLoadOptions& opts) {
  auto file = util::MmapFile::Open(path, opts.map);
  if (!file.ok()) return file.status();
  auto shared = std::make_shared<const util::MmapFile>(
      std::move(file).value());
  auto parsed = Mel3View::Parse(shared, kTwoHopMagic);
  if (!parsed.ok()) return parsed.status();
  const Mel3View& view = parsed.value();
  if (view.header().inner_version != kTwoHopVersion) {
    return Status::InvalidArgument("unsupported index version");
  }
  if (view.header().num_nodes != g->num_nodes()) {
    return Status::FailedPrecondition(
        "index was built for a graph with a different node count");
  }

  auto in_offsets = view.Block<uint64_t>(Mel3BlockKind::kInOffsets);
  auto in_entries = view.Block<InLabel>(Mel3BlockKind::kInEntries);
  auto out_offsets = view.Block<uint64_t>(Mel3BlockKind::kOutOffsets);
  auto out_entries = view.Block<OutSpan>(Mel3BlockKind::kOutEntries);
  auto followee_offsets =
      view.Block<uint64_t>(Mel3BlockKind::kFolloweeOffsets);
  auto followee_arena = view.Block<NodeId>(Mel3BlockKind::kFolloweeArena);
  for (const Status& s :
       {in_offsets.status(), in_entries.status(), out_offsets.status(),
        out_entries.status(), followee_offsets.status(),
        followee_arena.status()}) {
    if (!s.ok()) return s;
  }

  // Zero-copy bind: the spans point straight into the mapping. Only the
  // offset arrays are walked for validation — arena payload pages stay
  // untouched until queries fault them in.
  TwoHopIndex index(g, view.header().max_hops);
  index.in_offsets_.BindView(in_offsets.value());
  index.in_entries_.BindView(in_entries.value());
  index.out_offsets_.BindView(out_offsets.value());
  index.out_entries_.BindView(out_entries.value());
  index.followee_offsets_.BindView(followee_offsets.value());
  index.followee_arena_.BindView(followee_arena.value());
  index.mapping_ = shared;

  Status valid = index.ValidateOffsets();
  if (!valid.ok()) return valid;
  if (opts.verify_checksums) {
    valid = view.VerifyBlockChecksums();
    if (!valid.ok()) return valid;
    valid = index.ValidateNodeIds();
    if (!valid.ok()) return valid;
  }
  index.PublishArenaMetrics();
  PublishMmapLoadMetrics(kLoadModeMapped, shared->size(),
                         opts.map.advice);
  return index;
}

void TwoHopIndex::MaterializeOwned() {
  auto copy = [](auto& arena) {
    using T = std::remove_const_t<
        typename decltype(arena.view())::element_type>;
    if (!arena.owns_storage()) {
      arena.Own(std::vector<T>(arena.begin(), arena.end()));
    }
  };
  copy(in_offsets_);
  copy(in_entries_);
  copy(out_offsets_);
  copy(out_entries_);
  copy(followee_offsets_);
  copy(followee_arena_);
  mapping_.reset();
  PublishMmapLoadMetrics(kLoadModeCopied, 0,
                         util::MmapFile::Advice::kNormal);
}

uint64_t TwoHopIndex::IndexSizeBytes() const {
  return in_offsets_.size() * sizeof(uint64_t) +
         in_entries_.size() * sizeof(InLabel) +
         out_offsets_.size() * sizeof(uint64_t) +
         out_entries_.size() * sizeof(OutSpan) +
         followee_offsets_.size() * sizeof(uint64_t) +
         followee_arena_.size() * sizeof(NodeId);
}

}  // namespace mel::reach
