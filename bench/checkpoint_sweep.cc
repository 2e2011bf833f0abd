// Checkpoint-matrix bench: the failure matrix re-run with the durable
// checkpoint store enabled (docs/INTERNALS.md §16), emitting
// BENCH_checkpoint.json so the survivability guarantee is tracked from PR
// to PR: with the store on, every pure-IOU source-crash cell — the paper's
// §5 terminal residual-dependency case — must restore on a surviving host
// and finish with intact contents; nothing may hang.
//
// Usage: checkpoint_sweep [--seed N] [--threads N] [--out PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/experiments/failure_sweep.h"
#include "src/metrics/gates.h"

namespace accent {
namespace {

int Main(int argc, char** argv) {
  std::uint64_t seed = 42;
  int threads = 0;
  std::string out_path = "BENCH_checkpoint.json";
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

  const FailureMatrix matrix = RunFailureMatrix(seed, threads, /*checkpoint_store=*/true);

  // The acceptance gate: no pure-IOU source-crash cell may stay terminal.
  std::uint64_t unsurvivable = 0;
  for (const FailureTrialResult& trial : matrix.trials) {
    if (trial.strategy == TransferStrategy::kPureIou && trial.scenario == "source_crash" &&
        trial.outcome != FailureOutcome::kCompleted) {
      ++unsurvivable;
    }
  }

  Json report = FailureMatrixToJson(matrix);
  report["bench"] = Json("checkpoint_matrix");
  report["seed"] = Json(seed);
  report["unsurvivable_pure_iou_source_crash"] = Json(unsurvivable);
  AddGate(&report, "unsurvivable_pure_iou_source_crash", unsurvivable, "==", 0);
  AddGate(&report, "terminal_faults", matrix.terminal_faults, "==", 0);
  return WriteReport(report, out_path);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
