// Failure-matrix bench: the seven representative workloads x four transfer
// strategies under a lossy / partitioning / crashing wire, emitting
// machine-readable JSON (BENCH_failure.json) so the failure-handling
// guarantees are tracked from PR to PR: nothing may hang, the lossy-wire
// scenarios must complete with intact contents, and retry traffic stays
// visible.
//
// Usage: failure_sweep [--seed N] [--threads N] [--out PATH]
#include <optional>
#include <string>

#include "src/experiments/failure_sweep.h"
#include "src/metrics/gates.h"

namespace accent {
namespace {

int Main(int argc, char** argv) {
  const std::optional<ReportArgs> args = ParseReportArgs(argc, argv, "BENCH_failure.json");
  if (!args) {
    return 2;
  }

  Json report = FailureMatrixToJson(RunFailureMatrix(args->seed, args->threads));
  report["seed"] = Json(args->seed);
  return WriteReport(report, args->out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
