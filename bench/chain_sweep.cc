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
#include <optional>
#include <string>
#include <vector>

#include "src/experiments/chain.h"
#include "src/metrics/gates.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// Seven Table 4-1 programs x ChainSweepSpecs' 12 cells.
constexpr std::uint64_t kChainTrials = 84;

int Main(int argc, char** argv) {
  const std::optional<ReportArgs> args = ParseReportArgs(argc, argv, "BENCH_chain.json");
  if (!args) {
    return 2;
  }

  std::vector<FuzzScenario> specs;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    for (const FuzzScenario& cell : ChainSweepSpecs(spec.name, args->seed)) {
      specs.push_back(cell);
    }
  }

  // Crash variant: only the copy-on-reference strategies leave a chain at B
  // to collapse (pure-copy carries no IOUs), one Minprog cell each.
  std::vector<FuzzScenario> crash_specs;
  for (const FuzzScenario& cell : ChainSweepSpecs("Minprog", args->seed)) {
    if (cell.prefetch == 0 && (cell.strategy == TransferStrategy::kPureIou ||
                               cell.strategy == TransferStrategy::kResidentSet)) {
      crash_specs.push_back(cell);
    }
  }

  Json report = ChainSweepToJson(RunMechTrials(specs, args->threads),
                                 RunChainCrashTrials(crash_specs, args->threads));
  report["seed"] = Json(args->seed);
  AddGate(&report, "trial_count", report.Get("trial_count"), "==", kChainTrials);
  return WriteReport(report, args->out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
