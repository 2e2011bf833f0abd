// Simulates the 77-trial paper grid in parallel and folds it into
// BENCH_sweep.json: per-trial summary rows plus the aggregated metrics
// registry (checked by tools/check_bench, consumed by
// tools/render_results).
//
// Usage: run_all [--threads N] [--seed N] [--out FILE]
//   --threads   worker threads (default: ACCENT_SWEEP_THREADS or hardware)
//   --seed      trial seed (default 42, the grid every binary uses)
//   --out       sweep summary JSON path (default BENCH_sweep.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/experiments/metrics_fold.h"
#include "src/experiments/sweep.h"
#include "src/metrics/gates.h"
#include "src/metrics/registry.h"

namespace accent {
namespace {

int Main(int argc, char** argv) {
  int threads = 0;
  std::uint64_t seed = 42;
  std::string out = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--threads N] [--seed N] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  if (threads <= 0) {
    threads = SweepThreadCount();
  }

  std::printf("Simulating the paper grid (threads=%d, seed=%llu)\n", threads,
              static_cast<unsigned long long>(seed));

  std::size_t trials = 0;
  MetricsRegistry metrics;
  Json trial_rows{Json::Array{}};
  Json workloads{Json::Array{}};
  for (const std::string& name : RepresentativeNames()) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<TrialResult> results = RunTrials(StrategySweepConfigs(name, seed), threads);
    const auto t1 = std::chrono::steady_clock::now();
    trials += results.size();
    workloads.Append(Json(name));
    for (const TrialResult& result : results) {
      FoldTrialMetrics(result, &metrics);
      trial_rows.Append(TrialSummaryToJson(result));
    }
    std::printf("  %-10s %3zu trials  %8.1f ms\n", name.c_str(), results.size(),
                std::chrono::duration<double, std::milli>(t1 - t0).count());
  }

  // Calibrated resident-set column for Table 4-5: the paper's measured RS
  // times include walking the whole validated map (Lisp validates its 4 GB
  // heap at birth), which the plain page walk misses. Re-run the prefetch-0
  // resident-set trials fresh with the rs_zero_scan_per_mb cost switched on
  // (~3 ms/MB of zero-fill lands Lisp at the paper's 25.8 s). They run
  // apart from the grid on purpose: the headline grid and its digests must
  // stay byte-identical.
  const SimDuration rs_zero_scan = Ms(3);
  std::vector<TrialConfig> rs_configs;
  for (const std::string& name : RepresentativeNames()) {
    TrialConfig config;
    config.workload = name;
    config.strategy = TransferStrategy::kResidentSet;
    config.prefetch = 0;
    config.seed = seed;
    config.rs_zero_scan_per_mb = rs_zero_scan;
    rs_configs.push_back(config);
  }
  const std::vector<TrialResult> rs_results = RunTrials(rs_configs, threads);
  Json rs_rows{Json::Array{}};
  for (const TrialResult& result : rs_results) {
    Json row{Json::Object{}};
    row["workload"] = Json(result.config.workload);
    row["rimas_transfer_us"] =
        Json(static_cast<std::int64_t>(result.migration.RimasTransferTime().count()));
    row["rs_packaging_extra_us"] =
        Json(static_cast<std::int64_t>(result.migration.rs_packaging_extra.count()));
    rs_rows.Append(std::move(row));
  }
  std::printf("  rs-calibrated column: %zu fresh resident-set trials (%lld us/MB zero scan)\n",
              rs_results.size(), static_cast<long long>(rs_zero_scan.count()));

  Json root{Json::Object{}};
  root["bench"] = Json("sweep");
  root["schema_version"] = Json(2);
  root["rs_zero_scan_per_mb_us"] = Json(static_cast<std::int64_t>(rs_zero_scan.count()));
  root["rs_calibrated"] = std::move(rs_rows);
  root["seed"] = Json(seed);
  root["trial_count"] = Json(static_cast<std::uint64_t>(trials));
  root["workloads"] = std::move(workloads);
  root["metrics"] = metrics.ToJson();
  root["trials"] = std::move(trial_rows);
  AddGate(&root, "trial_count", static_cast<std::uint64_t>(trials), ">", 0);
  return WriteReport(root, out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
