#ifndef LINKBENCH_TRACE_H_
#define LINKBENCH_TRACE_H_

// The traced run: per-layer metrics measured from outside the program,
// by timing the public calls into each layer (serve, core, text, social,
// reach, recency, kb, util) and reading the registry's exported counters.

#include <cstdint>

#include "session.h"
#include "workload.h"

namespace linkbench {

RunResult TracedRun(const WorkloadSpec& spec, uint64_t seed,
                    const Timing& timing);

}  // namespace linkbench

#endif  // LINKBENCH_TRACE_H_
