// Adversarial fuzz-corpus bench: seeded random scenarios — heterogeneous
// topology x workload x fault plan x strategy x optional re-migration —
// checked against the standing oracles (content integrity, zero hangs,
// balanced backer references, the fleet census, payload balance),
// emitting machine-readable JSON (BENCH_fuzz.json) so the fuzzed
// guarantees are tracked from PR to PR.
//
// Usage: fuzz_corpus [--first N] [--seeds N] [--threads N] [--out PATH]
//   --seeds     corpus size (default 64)
//   --threads   workers (default 0: RunFuzzCorpus picks)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/base/logging.h"
#include "src/experiments/scenario_fuzz.h"
#include "src/metrics/gates.h"

namespace accent {
namespace {

int Main(int argc, char** argv) {
  std::uint64_t first = 1;
  std::uint64_t seeds = 64;
  int threads = 0;
  std::string out_path = "BENCH_fuzz.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--first") == 0 && i + 1 < argc) {
      first = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--first N] [--seeds N] [--threads N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // Failing scenarios log their seed + replay line; make sure they print.
  if (Logger::Get().level() < LogLevel::kError) {
    Logger::Get().set_level(LogLevel::kError);
  }

  return WriteReport(FuzzCorpusToJson(RunFuzzCorpus(first, seeds, threads)), out_path);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
