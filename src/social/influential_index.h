#ifndef MEL_SOCIAL_INFLUENTIAL_INDEX_H_
#define MEL_SOCIAL_INFLUENTIAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "kb/complemented_kb.h"
#include "kb/types.h"
#include "social/influence.h"

namespace mel::social {

/// \brief Offline store of the most influential users per
/// (surface form, candidate entity) pair — the "collections of most
/// influential users broadcasting about each entity" that the paper's
/// knowledge-acquisition step (Sec. 3.2.1) materializes so online
/// inference does not rank whole communities per query.
///
/// Influence depends on the mention's candidate set E_m (the idf /
/// entropy terms range over the co-candidates), so entries are keyed by
/// surface id, not by entity alone.
///
/// The index can be refreshed after online feedback: Invalidate(entity)
/// drops every cached entry involving the entity, and the next lookup
/// recomputes it from the complemented knowledgebase.
class InfluentialUserIndex {
 public:
  /// \param ckb complemented knowledgebase (must outlive the index)
  /// \param method influence estimator (tf-idf or entropy)
  /// \param top_k users kept per (surface, candidate); 0 = whole
  ///        community
  InfluentialUserIndex(const kb::ComplementedKnowledgebase* ckb,
                       InfluenceMethod method, uint32_t top_k);

  /// Fills every surface that has no valid entry: the first call is the
  /// offline pass over all surface forms, later calls refill only the
  /// surfaces invalidated since the previous call (a walk of the pending
  /// list, not of the whole cache). Optional: lookups fill lazily.
  void PrecomputeAll();

  /// The top influential users of `entity` in the context of the
  /// candidate set of `surface_id`. Computed and cached on first use.
  const std::vector<InfluentialUser>& Get(uint32_t surface_id,
                                          kb::EntityId entity);

  /// Drops every cached entry whose surface has `entity` among its
  /// candidates. Call after feedback links change the entity's community.
  void Invalidate(kb::EntityId entity);

  size_t CachedEntries() const;

 private:
  struct SurfaceCache {
    bool valid = false;
    bool pending = true;  // listed in pending_
    // Aligned with the surface's candidate list.
    std::vector<std::vector<InfluentialUser>> per_candidate;
  };

  void FillSurface(uint32_t surface_id);

  const kb::ComplementedKnowledgebase* ckb_;
  InfluenceEstimator estimator_;
  uint32_t top_k_;
  std::vector<SurfaceCache> cache_;
  // Surfaces not valid as of the last PrecomputeAll, each listed once.
  std::vector<uint32_t> pending_;
  // entity id -> surfaces it participates in (built once at
  // construction).
  std::vector<std::vector<uint32_t>> entity_surfaces_;
};

}  // namespace mel::social

#endif  // MEL_SOCIAL_INFLUENTIAL_INDEX_H_
