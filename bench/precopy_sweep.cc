// Live pre-copy sweep: the fourth strategy family measured against the
// paper's three, emitting machine-readable JSON (BENCH_precopy.json) so the
// downtime/bytes trade is tracked from PR to PR: nothing may hang, every
// migration must complete, pre-copy must beat pure-copy on downtime for the
// compute-bound workloads, and it must pay for that in page bytes (dirty
// re-shipping — §5's critique, quantified).
//
// Usage: precopy_sweep [--seed N] [--threads N] [--out PATH]
#include <optional>
#include <string>

#include "src/experiments/precopy.h"
#include "src/metrics/gates.h"

namespace accent {
namespace {

// Seven Table 4-1 programs x (three paper strategies + nine pre-copy
// round-cap x SLO cells).
constexpr std::uint64_t kPreCopyTrials = 84;

int Main(int argc, char** argv) {
  const std::optional<ReportArgs> args = ParseReportArgs(argc, argv, "BENCH_precopy.json");
  if (!args) {
    return 2;
  }

  Json report =
      PreCopySweepToJson(RunMechTrials(PreCopySweepSpecs(args->seed), args->threads));
  report["seed"] = Json(args->seed);
  AddGate(&report, "trial_count", report.Get("trial_count"), "==", kPreCopyTrials);
  return WriteReport(report, args->out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
