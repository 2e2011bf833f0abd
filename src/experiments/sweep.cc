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

std::vector<TrialConfig> StrategySweepConfigs(const std::string& workload,
                                              std::uint64_t seed) {
  std::vector<TrialConfig> configs;
  TrialConfig config;
  config.workload = workload;
  config.seed = seed;

  config.strategy = TransferStrategy::kPureCopy;
  config.prefetch = 0;
  configs.push_back(config);

  for (TransferStrategy strategy :
       {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
    for (std::uint32_t prefetch : kPaperPrefetchValues) {
      config.strategy = strategy;
      config.prefetch = prefetch;
      configs.push_back(config);
    }
  }
  return configs;
}

std::vector<TrialResult> RunTrials(const std::vector<TrialConfig>& configs, int threads) {
  return ParallelMap(threads, configs.size(),
                     [&configs](std::size_t i) { return RunTrial(configs[i]); });
}

}  // namespace accent
