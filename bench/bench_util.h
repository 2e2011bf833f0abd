// Shared helpers for the table/figure regeneration binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/experiments/sweep.h"
#include "src/experiments/trial.h"
#include "src/metrics/table.h"

namespace accent {

inline const std::vector<std::string>& RepresentativeNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> list;
    for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
      list.push_back(spec.name);
    }
    return list;
  }();
  return names;
}

// The full paper grid (7 workloads x {copy, IOU x PF, RS x PF}), simulated
// once per process per workload, its trials fanned out across
// SweepThreadCount() threads.
class PaperGrid {
 public:
  static const std::vector<TrialResult>& For(const std::string& workload) {
    static std::map<std::string, std::vector<TrialResult>> grids;
    std::vector<TrialResult>& grid = grids[workload];
    if (grid.empty()) {
      grid = RunTrials(StrategySweepConfigs(workload), SweepThreadCount());
    }
    return grid;
  }

  static const TrialResult& Find(const std::string& workload, TransferStrategy strategy,
                                 std::uint32_t prefetch) {
    for (const TrialResult& result : For(workload)) {
      if (result.config.strategy == strategy &&
          (strategy == TransferStrategy::kPureCopy || result.config.prefetch == prefetch)) {
        return result;
      }
    }
    ACCENT_CHECK(false) << " missing trial " << workload;
    static TrialResult unreachable;
    return unreachable;
  }
};

inline void PrintHeading(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("\n");
}

}  // namespace accent

#endif  // BENCH_BENCH_UTIL_H_
