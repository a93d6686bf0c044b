#include "social/influential_index.h"

#include "util/logging.h"
#include "util/metrics.h"

namespace mel::social {

namespace {

struct IndexMetrics {
  metrics::Counter* hits;
  metrics::Counter* misses;
  metrics::Counter* invalidations;
};

const IndexMetrics& GetIndexMetrics() {
  static const IndexMetrics m = [] {
    auto& reg = metrics::Registry();
    IndexMetrics im;
    im.hits = reg.GetCounter("social.influential_index.hits_total");
    im.misses = reg.GetCounter("social.influential_index.misses_total");
    im.invalidations =
        reg.GetCounter("social.influential_index.invalidations_total");
    return im;
  }();
  return m;
}

}  // namespace

InfluentialUserIndex::InfluentialUserIndex(
    const kb::ComplementedKnowledgebase* ckb, InfluenceMethod method,
    uint32_t top_k)
    : ckb_(ckb), estimator_(ckb, method), top_k_(top_k) {
  MEL_CHECK(ckb != nullptr);
  const kb::Knowledgebase& kbase = ckb->base();
  const auto num_surfaces = static_cast<uint32_t>(kbase.surfaces().size());
  cache_.resize(num_surfaces);
  pending_.reserve(num_surfaces);
  entity_surfaces_.resize(kbase.num_entities());
  for (uint32_t sid = 0; sid < num_surfaces; ++sid) {
    pending_.push_back(sid);
    for (const kb::Candidate& c : kbase.CandidatesBySurfaceId(sid)) {
      entity_surfaces_[c.entity].push_back(sid);
    }
  }
}

void InfluentialUserIndex::FillSurface(uint32_t surface_id) {
  GetIndexMetrics().misses->Increment();
  SurfaceCache& entry = cache_[surface_id];
  auto candidates = ckb_->base().CandidatesBySurfaceId(surface_id);
  std::vector<kb::EntityId> entities;
  entities.reserve(candidates.size());
  for (const kb::Candidate& c : candidates) entities.push_back(c.entity);
  entry.per_candidate = estimator_.TopInfluentialAll(entities, top_k_);
  entry.valid = true;
}

void InfluentialUserIndex::PrecomputeAll() {
  for (uint32_t sid : pending_) {
    cache_[sid].pending = false;
    if (!cache_[sid].valid) FillSurface(sid);
  }
  pending_.clear();
}

const std::vector<InfluentialUser>& InfluentialUserIndex::Get(
    uint32_t surface_id, kb::EntityId entity) {
  MEL_CHECK(surface_id < cache_.size());
  if (!cache_[surface_id].valid) {
    FillSurface(surface_id);
  } else {
    GetIndexMetrics().hits->Increment();
  }
  auto candidates = ckb_->base().CandidatesBySurfaceId(surface_id);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].entity == entity) {
      return cache_[surface_id].per_candidate[i];
    }
  }
  MEL_CHECK_MSG(false, "entity is not a candidate of the surface");
  static const std::vector<InfluentialUser> kEmpty;
  return kEmpty;
}

void InfluentialUserIndex::Invalidate(kb::EntityId entity) {
  if (entity >= entity_surfaces_.size()) return;
  const std::vector<uint32_t>& surfaces = entity_surfaces_[entity];
  if (surfaces.empty()) return;
  GetIndexMetrics().invalidations->Increment();
  for (uint32_t sid : surfaces) {
    SurfaceCache& entry = cache_[sid];
    entry.valid = false;
    entry.per_candidate.clear();
    if (!entry.pending) {
      entry.pending = true;
      pending_.push_back(sid);
    }
  }
}

size_t InfluentialUserIndex::CachedEntries() const {
  size_t count = 0;
  for (const auto& entry : cache_) {
    if (entry.valid) count += entry.per_candidate.size();
  }
  return count;
}

}  // namespace mel::social
