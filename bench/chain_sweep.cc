// Chain-migration bench: every representative workload re-migrated A -> B ->
// C across the full strategy x prefetch grid, emitting machine-readable JSON
// (BENCH_chain.json) so the multi-hop guarantees are tracked from PR to PR:
// every chain collapses, the process finishes at C with intact contents, and
// after the collapse zero page-fault requests are serviced by (or routed
// through) the evacuated intermediary. Two crash trials additionally kill B
// for good right after its collapse — the process at C must survive on its
// now-A-only residual dependency.
//
// Usage: chain_sweep [--seed N] [--threads N] [--out PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/experiments/chain.h"
#include "src/metrics/gates.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

int Main(int argc, char** argv) {
  std::uint64_t seed = 42;
  int threads = 0;
  std::string out_path = "BENCH_chain.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--seed N] [--threads N] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  std::vector<ChainTrialConfig> configs;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    for (const ChainTrialConfig& config : ChainSweepConfigs(spec.name, seed)) {
      configs.push_back(config);
    }
  }
  const std::vector<ChainTrialResult> trials = RunChainTrials(configs, threads);

  // Crash variant: only the copy-on-reference strategies leave a chain at B
  // to collapse (pure-copy carries no IOUs), one trial each.
  std::vector<ChainCrashResult> crashes;
  for (TransferStrategy strategy :
       {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
    ChainTrialConfig config;
    config.workload = "Minprog";
    config.strategy = strategy;
    config.seed = seed;
    crashes.push_back(RunChainCrashTrial(config));
  }

  Json report = ChainSweepToJson(trials, crashes);
  report["seed"] = Json(seed);
  return WriteReport(report, out_path);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
