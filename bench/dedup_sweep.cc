// Content-dedup bench: the same Table 4-1 program migrated N times across a
// calibrated 4-host fleet, once with the content-addressed page service on
// and once with it off, emitting machine-readable JSON (BENCH_dedup.json) so
// the dedup guarantees are tracked from PR to PR: with the cache on the
// origin SegmentBacker serves at most half of the faulted pages as payload
// (the rest ride confirm acks or nearer holders), total bytes on the wire
// drop strictly below the cache-off baseline, and not one page installs
// under an identity its bytes do not hash to.
//
// Usage: dedup_sweep [--workload NAME] [--seed N] [--repeats N] [--out PATH]
#include <optional>
#include <string>
#include <vector>

#include "src/experiments/dedup.h"
#include "src/experiments/metrics_fold.h"
#include "src/metrics/gates.h"
#include "src/metrics/registry.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

int Main(int argc, char** argv) {
  std::vector<std::string> workloads;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    workloads.push_back(spec.name);
  }
  const std::optional<ReportArgs> args = ParseReportArgs(
      argc, argv, "BENCH_dedup.json", {"--workload", "--seed", "--repeats"}, workloads);
  if (!args) {
    return 2;
  }
  DedupConfig config;
  config.spec.workload = args->workload;
  config.spec.seed = args->seed;
  config.spec.calibrations = DedupFleetCalibrations(config.spec.host_count);
  config.repeats = args->repeats;
  const DedupResult cached = RunDedupExperiment(config);

  DedupConfig baseline_config = config;
  baseline_config.spec.content_cache = false;
  const DedupResult baseline = RunDedupExperiment(baseline_config);

  const std::uint64_t integrity_failures =
      cached.integrity_failures + baseline.integrity_failures;
  const bool drained = cached.drained && baseline.drained;
  const double offload = cached.OriginOffloadRatio();

  Json report = Json::Object{};
  report["bench"] = Json("dedup_sweep");
  report["schema_version"] = Json(1);
  report["workload"] = Json(config.spec.workload);
  report["seed"] = Json(config.spec.seed);
  report["repeats"] = Json(config.repeats);
  report["hosts"] = Json(config.spec.host_count);
  report["origin_offload_ratio"] = Json(offload);
  report["wire_bytes_cached"] = Json(cached.wire_bytes);
  report["wire_bytes_baseline"] = Json(baseline.wire_bytes);
  report["wire_bytes_saved"] = Json(baseline.wire_bytes > cached.wire_bytes
                                        ? baseline.wire_bytes - cached.wire_bytes
                                        : 0);
  report["integrity_failures"] = Json(integrity_failures);
  report["hung"] = Json(drained ? 0 : 1);
  report["cached"] = DedupResultToJson(cached);
  report["baseline"] = DedupResultToJson(baseline);
  // The typed registry view of the cached half (cache.* counters): the same
  // bridge the headline sweep uses, so dashboards fold BENCH files uniformly.
  MetricsRegistry metrics;
  FoldDedupMetrics(cached, &metrics);
  report["metrics"] = metrics.ToJson();

  AddGate(&report, "origin_offload_ratio", offload, ">=", 0.5);
  AddGate(&report, "wire_bytes_cached", cached.wire_bytes, "<", baseline.wire_bytes);
  // The cache-off run must not even construct the dedup plane: its counters
  // prove the classic protocol ran untouched.
  AddGate(&report, "baseline_dedup_activity",
          baseline.offloaded_pages + baseline.cache_hits + baseline.cache_insertions, "==", 0);
  AddGate(&report, "integrity_failures", integrity_failures, "==", 0);
  AddGate(&report, "hung", drained ? 0 : 1, "==", 0);
  return WriteReport(report, args->out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
