// Failure-matrix bench: the seven representative workloads x four transfer
// strategies under a lossy / partitioning / crashing wire, emitting
// machine-readable JSON (BENCH_failure.json) so the failure-handling
// guarantees are tracked from PR to PR: nothing may hang, the lossy-wire
// scenarios must complete with intact contents, and retry traffic stays
// visible.
//
// Usage: failure_sweep [--seed N] [--threads N] [--out PATH]
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
  std::string out_path = "BENCH_failure.json";
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

  Json report = FailureMatrixToJson(RunFailureMatrix(seed, threads));
  report["seed"] = Json(seed);
  return WriteReport(report, out_path);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
