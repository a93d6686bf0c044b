#ifndef MEL_SERVE_TYPES_H_
#define MEL_SERVE_TYPES_H_

#include <cstdint>
#include <string>

#include "core/entity_linker.h"
#include "kb/types.h"

namespace mel::serve {

/// \brief What the admission controller does with a link request that
/// arrives while the queue is at capacity (see docs/SERVING.md for how
/// to choose).
enum class AdmissionPolicy : uint8_t {
  /// Block the producer until a slot frees up (or the service stops).
  /// Backpressure propagates to the client; nothing is ever dropped.
  kBlock,
  /// Reject immediately with ServeStatus::kOverloaded. The client learns
  /// about the overload in O(1) and can retry elsewhere / later.
  kShed,
  /// Block like kBlock, but only until the request's deadline; a request
  /// whose deadline passes while waiting for admission (or while queued —
  /// expired entries are dropped at dispatch) completes with
  /// ServeStatus::kDeadlineExpired.
  kDeadline,
};

const char* AdmissionPolicyName(AdmissionPolicy policy);

/// \brief Terminal outcome of a submitted link request.
enum class ServeStatus : uint8_t {
  kOk = 0,
  /// Shed at admission: the queue was at capacity under kShed.
  kOverloaded,
  /// The deadline passed before the request was linked (either while
  /// waiting for admission under kDeadline, or while queued).
  kDeadlineExpired,
  /// Submitted after Stop() — never admitted.
  kShutdown,
  /// Rejected at admission: the request names a user outside the social
  /// graph (EntityLinker::IsValidUser). Never queued or linked.
  kInvalidRequest,
};

const char* ServeStatusName(ServeStatus status);

/// \brief One online mention-linking request.
struct LinkRequest {
  std::string mention;
  kb::UserId user = kb::kInvalidUser;
  /// Model time passed through to EntityLinker::LinkMention (the "now" of
  /// the recency window) — decoupled from the wall-clock deadline below.
  kb::Timestamp now = 0;
  /// Wall-clock serving budget in nanoseconds, measured from Submit();
  /// 0 falls back to ServeOptions::default_deadline_ns (where 0 again
  /// means "no deadline").
  int64_t deadline_ns = 0;
};

/// \brief Terminal response delivered through the future returned by
/// LinkService::Submit.
struct LinkResponse {
  ServeStatus status = ServeStatus::kShutdown;
  /// Populated only when status == kOk.
  core::MentionLinkResult result;
  /// Feedback epoch the result observed: the number of feedback barriers
  /// applied before the batch ran. Every response of one micro-batch
  /// carries the same epoch (no torn epochs).
  uint64_t epoch = 0;
  /// Size of the micro-batch this request rode in (kOk only).
  uint32_t batch_size = 0;
  /// Admission-to-dispatch wait (kOk only).
  int64_t queue_wait_ns = 0;
};

/// Sentinel resolved through SubmitFeedback's future when the write was
/// rejected (unknown entity or user id, or the service stopped before the
/// barrier could apply it).
inline constexpr uint64_t kFeedbackRejected = static_cast<uint64_t>(-1);

/// Sentinel resolved through SubmitMutation's future when the delta was
/// rejected (service stopped first, or no mutation handler installed).
inline constexpr uint64_t kMutationRejected = static_cast<uint64_t>(-1);

}  // namespace mel::serve

#endif  // MEL_SERVE_TYPES_H_
