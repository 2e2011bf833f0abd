// Adversarial fuzz-corpus bench: seeded random scenarios — heterogeneous
// topology x workload x fault plan x strategy x optional re-migration —
// checked against the standing oracles (content integrity, zero hangs,
// balanced backer references, the fleet census, payload balance),
// emitting machine-readable JSON (BENCH_fuzz.json) so the fuzzed
// guarantees are tracked from PR to PR.
//
// Usage: fuzz_corpus [--first N] [--seeds N] [--threads N] [--out PATH]
//   --first     first seed (default 1)
//   --seeds     corpus size (default 64, at least 1)
//   --threads   workers (default 0: RunFuzzCorpus picks)
#include <optional>

#include "src/base/logging.h"
#include "src/experiments/scenario_fuzz.h"
#include "src/metrics/gates.h"

namespace accent {
namespace {

int Main(int argc, char** argv) {
  const std::optional<ReportArgs> args =
      ParseReportArgs(argc, argv, "BENCH_fuzz.json", {"--first", "--seeds", "--threads"});
  if (!args) {
    return 2;
  }

  // Failing scenarios log their seed + replay line; make sure they print.
  if (Logger::Get().level() < LogLevel::kError) {
    Logger::Get().set_level(LogLevel::kError);
  }

  Json report = FuzzCorpusToJson(RunFuzzCorpus(args->first, args->seeds, args->threads));
  // The denominator, counted from the rows written: a corpus that ran fewer
  // scenarios than asked fails. The gate and its schema bump live here, not
  // in FuzzCorpusToJson, whose whole dump the corpus digest pins.
  report["schema_version"] = Json(3);
  AddGate(&report, "scenario_count", report.Get("scenarios").AsArray().size(), "==",
          args->seeds);
  return WriteReport(report, args->out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
