#include "session.h"

#include <sys/resource.h>

#include "reach/reach_maintainer.h"
#include "serve/link_service.h"
#include "util/metrics.h"

namespace linkbench {

using namespace mel;

namespace {

// A closed loop that takes this many times its nominal time is cut off:
// the service has stalled far beyond any change worth measuring.
constexpr double kClosedLoopGuard = 8;

}  // namespace

std::vector<const OpRecord*> Session::AllOps() const {
  std::vector<const OpRecord*> ops;
  for (const OpRecord& op : open) ops.push_back(&op);
  for (const ClosedLoopResult& slice : closed) {
    for (const OpRecord& op : slice.ops) ops.push_back(&op);
  }
  for (const OpRecord& op : probe) ops.push_back(&op);
  return ops;
}

Session Serve(std::unique_ptr<World> world, const WorkloadSpec& spec,
              uint64_t seed, const Timing& timing, const ServePlan& plan) {
  Session s;
  s.world = std::move(world);
  s.inputs = MakeInputs(spec, *s.world, seed, timing);
  s.snapshot = std::make_unique<kb::ComplementedKnowledgebase>(*s.world->ckb);
  s.open = std::move(s.inputs.open_ops);

  reach::ReachMaintainer maintainer(&s.world->graph, kMaxHops);
  maintainer.Register(s.world->reach.get());
  serve::ServeOptions options = ServeConfig();
  if (spec.mutates()) {
    options.mutation_handler = RecordingHandler(&maintainer, &s.delta_log);
  }

  serve::LinkService service(s.world->linker.get(), options);
  metrics::SetEnabled(plan.traced);
  RunOpenLoop(&service, s.inputs.links, &s.open);
  service.WaitIdle();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  s.peak_rss_mb = usage.ru_maxrss / 1024.0;  // KiB on Linux

  const size_t links = s.inputs.links.size() / plan.closed_slices;
  const size_t deltas =
      (s.inputs.deltas.size() - s.inputs.open_deltas) / plan.closed_slices;
  for (size_t k = 0; k < plan.closed_slices; ++k) {
    const size_t delta_begin = s.inputs.open_deltas + k * deltas;
    metrics::SetEnabled(plan.traced && k % 2 == 1);
    s.closed.push_back(RunClosedLoop(
        &service, s.inputs.links,
        MakeClosedPlan(s.inputs, k * links, (k + 1) * links, delta_begin,
                       delta_begin + deltas),
        kClosedLoopGuard * timing.closed_s, kClosedWindow));
    service.WaitIdle();
  }
  metrics::SetEnabled(false);

  if (plan.write_probe) {
    s.probe = FeedbackProbeOps(*s.world, seed);
    RunOpenLoop(&service, s.inputs.links, &s.probe);
    service.WaitIdle();
  }
  service.Stop();

  for (const OpRecord* op : s.AllOps()) {
    if (op->kind == OpKind::kDelta) ++s.deltas_sent;
  }
  return s;
}

CheckReport Check(Session* session, uint64_t seed) {
  CheckReport report;
  const std::vector<const OpRecord*> ops = session->AllOps();
  size_t not_ok = 0;
  for (const OpRecord* op : ops) {
    if (op->kind == OpKind::kLink &&
        op->response.status != serve::ServeStatus::kOk) {
      ++not_ok;
    }
  }
  report.FailOps(not_ok, "link not served");
  CheckAcksAndEpochs(ops, &report);
  if (session->inputs.spec->mutates()) {
    CheckMaintainedIndex(*session->world, session->delta_log,
                         session->deltas_sent, seed, &report);
  } else {
    Reference ref = MakeReference(*session->world, *session->snapshot);
    CheckAgainstReplay(ops, session->inputs.links, &ref, *session->world,
                       seed, &report);
  }
  return report;
}

std::vector<double> LinkLatenciesUs(const std::vector<OpRecord>& ops) {
  std::vector<double> out;
  for (const OpRecord& op : ops) {
    if (op.kind == OpKind::kLink &&
        op.response.status == serve::ServeStatus::kOk) {
      out.push_back((op.done_ns - op.due_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> WriteLatenciesUs(const std::vector<OpRecord>& ops) {
  std::vector<double> out;
  for (const OpRecord& op : ops) {
    if (op.kind != OpKind::kLink && op.ack != serve::kFeedbackRejected) {
      out.push_back((op.done_ns - op.due_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> WriteCpuUs(const std::vector<OpRecord>& ops) {
  std::vector<double> out;
  for (const OpRecord& op : ops) {
    if (op.kind != OpKind::kLink && op.ack != serve::kFeedbackRejected) {
      out.push_back((op.cpu_done_ns - op.cpu_send_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> LatenessUs(const std::vector<OpRecord>& ops) {
  std::vector<double> out;
  for (const OpRecord& op : ops) out.push_back((op.send_ns - op.due_ns) / 1e3);
  return out;
}

}  // namespace linkbench
