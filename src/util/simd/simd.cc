#include "util/simd/simd.h"

#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/simd/kernel_tables.h"

namespace mel::util::simd {

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const CpuFeatures& CpuFeatures::Detect() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
    return f;
  }();
  return features;
}

namespace {

// What the binary itself contains, independent of the host CPU. A tier
// is usable only when both its TU was built AND the CPU supports it.
bool TierBuilt(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return detail::Avx2KernelsOrNull() != nullptr;
  }
  return false;
}

bool CpuSupports(Level level, const CpuFeatures& features) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return features.avx2;
  }
  return false;
}

Level BestSupported(const CpuFeatures& features) {
  if (CpuSupports(Level::kAvx2, features) && TierBuilt(Level::kAvx2)) {
    return Level::kAvx2;
  }
  return Level::kScalar;
}

}  // namespace

Level ResolveLevel(const char* override_name, const CpuFeatures& features) {
  const Level best = BestSupported(features);
  if (override_name == nullptr || override_name[0] == '\0') return best;
  Level requested;
  if (std::strcmp(override_name, "scalar") == 0) {
    requested = Level::kScalar;
  } else if (std::strcmp(override_name, "avx2") == 0) {
    requested = Level::kAvx2;
  } else {
    std::fprintf(stderr,
                 "mel: unknown MEL_SIMD value \"%s\" "
                 "(expected scalar|avx2), auto-detecting\n",
                 override_name);
    return best;
  }
  // Requests above the host/build capability clamp down rather than
  // fail: MEL_SIMD=avx2 on a machine without AVX2 means "the best you
  // can", never an illegal instruction.
  if (static_cast<int>(requested) > static_cast<int>(best)) {
    std::fprintf(stderr,
                 "mel: MEL_SIMD=%s not usable on this host/build, "
                 "clamping to %s\n",
                 override_name, LevelName(best));
    return best;
  }
  return requested;
}

bool LevelSupported(Level level) {
  return TierBuilt(level) && CpuSupports(level, CpuFeatures::Detect());
}

Level ActiveLevel() {
  static const Level level = [] {
    const Level l =
        ResolveLevel(std::getenv("MEL_SIMD"), CpuFeatures::Detect());
    metrics::Registry().GetGauge("util.simd.level")->Set(
        static_cast<int64_t>(l));
    return l;
  }();
  return level;
}

const KernelTable& KernelsFor(Level level) {
  MEL_CHECK_MSG(LevelSupported(level), "requested SIMD tier unavailable");
  switch (level) {
    case Level::kAvx2:
      return *detail::Avx2KernelsOrNull();
    case Level::kScalar:
      break;
  }
  return *detail::ScalarKernels();
}

const KernelTable& Kernels() {
  static const KernelTable& table = KernelsFor(ActiveLevel());
  return table;
}

const SimdMetrics& GetSimdMetrics() {
  static const SimdMetrics m = [] {
    auto& reg = metrics::Registry();
    SimdMetrics s;
    s.merge_dispatch = reg.GetCounter("util.simd.merge_dispatch_total");
    s.gallop_dispatch = reg.GetCounter("util.simd.gallop_dispatch_total");
    s.probe_dispatch = reg.GetCounter("util.simd.probe_dispatch_total");
    s.dense_levels = reg.GetCounter("util.simd.frontier_dense_levels_total");
    return s;
  }();
  return m;
}

}  // namespace mel::util::simd
