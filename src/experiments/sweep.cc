#include "src/experiments/sweep.h"

#include <cstdlib>

#include "src/base/thread_pool.h"

namespace accent {

int SweepThreadCount() {
  if (const char* env = std::getenv("ACCENT_SWEEP_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<int>(parsed);
    }
    // Malformed or non-positive values fall through to the hardware default
    // rather than aborting: CI scripts set this blindly.
  }
  return HardwareThreads();
}

std::vector<FuzzScenario> PaperGridSpecs(const std::string& workload, std::uint64_t seed) {
  FuzzScenario spec;
  spec.workload = workload;
  spec.seed = seed;
  std::vector<FuzzScenario> specs = {spec};  // pure-copy, prefetch 0
  for (TransferStrategy strategy :
       {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
    for (std::uint32_t prefetch : kPaperPrefetchValues) {
      spec.strategy = strategy;
      spec.prefetch = prefetch;
      specs.push_back(spec);
    }
  }
  return specs;
}

}  // namespace accent
