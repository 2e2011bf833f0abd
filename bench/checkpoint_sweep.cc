// Checkpoint-matrix bench: the failure matrix re-run with the durable
// checkpoint store enabled (docs/INTERNALS.md §16), emitting
// BENCH_checkpoint.json so the survivability guarantee is tracked from PR
// to PR: with the store on, every pure-IOU source-crash cell — the paper's
// §5 terminal residual-dependency case — must restore on a surviving host
// and finish with intact contents; nothing may hang.
//
// Usage: checkpoint_sweep [--seed N] [--threads N] [--out PATH]
#include <optional>
#include <string>

#include "src/experiments/failure_sweep.h"
#include "src/metrics/gates.h"

namespace accent {
namespace {

// The failure matrix's cells: seven Table 4-1 programs x four strategies x
// four fault columns.
constexpr std::uint64_t kCheckpointMatrixTrials = 112;

int Main(int argc, char** argv) {
  const std::optional<ReportArgs> args = ParseReportArgs(argc, argv, "BENCH_checkpoint.json");
  if (!args) {
    return 2;
  }

  const FailureMatrix matrix =
      RunFailureMatrix(args->seed, args->threads, /*checkpoint_store=*/true);

  // The acceptance gate: no pure-IOU source-crash cell may stay terminal.
  std::uint64_t unsurvivable = 0;
  for (const MechTrial& trial : matrix.trials) {
    if (trial.spec.strategy == TransferStrategy::kPureIou && trial.spec.crash_source &&
        trial.verdict.outcome != FailureOutcome::kCompleted) {
      ++unsurvivable;
    }
  }

  Json report = FailureMatrixToJson(matrix);
  report["bench"] = Json("checkpoint_matrix");
  report["seed"] = Json(args->seed);
  report["unsurvivable_pure_iou_source_crash"] = Json(unsurvivable);
  AddGate(&report, "unsurvivable_pure_iou_source_crash", unsurvivable, "==", 0);
  AddGate(&report, "terminal_faults", report.Get("terminal_faults"), "==", 0);
  AddGate(&report, "trial_count", report.Get("trial_count"), "==", kCheckpointMatrixTrials);
  return WriteReport(report, args->out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
