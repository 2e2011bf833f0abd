// Fleet-scale cluster bench: one datacenter-row churn trial (hundreds of
// hosts, tens of thousands of processes) plus the policy sweep (threshold x
// hysteresis x dispersal_weight across cluster sizes). Emits
// BENCH_cluster.json gated on zero hangs and zero census failures.
//
// Every result here is simulated and deterministic, so the big trial runs
// once; its wall-clock is perfbench's fleet_churn workload.
//
// Usage: cluster_sweep [--seed N] [--threads N] [--out PATH]
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/experiments/cluster.h"
#include "src/experiments/sweep.h"
#include "src/metrics/gates.h"

namespace accent {
namespace {

ClusterConfig BigTrialConfig(std::uint64_t seed) {
  ClusterConfig config;
  config.host_count = 480;
  config.initial_processes_per_host = 30;
  config.duration = Sec(75.0);
  config.arrivals_per_host_per_sec = 1.0;
  config.mean_service_sec = 60.0;
  config.policy.sample_period = Sec(2.0);
  config.seed = seed;
  return config;
}

ClusterConfig SweepTrialConfig(std::uint64_t seed, int hosts, int threshold,
                               int hysteresis, double dispersal) {
  ClusterConfig config;
  config.host_count = hosts;
  config.duration = Sec(120.0);
  config.policy.sample_period = Sec(2.0);
  config.policy.imbalance_threshold = threshold;
  config.policy.hysteresis = hysteresis;
  config.policy.dispersal_weight = dispersal;
  config.seed = seed;
  return config;
}

int Main(int argc, char** argv) {
  const std::optional<ReportArgs> args = ParseReportArgs(argc, argv, "BENCH_cluster.json");
  if (!args) {
    return 2;
  }

  // --- big trial ------------------------------------------------------------
  const ClusterConfig big = BigTrialConfig(args->seed);
  const ClusterResult big_result = RunClusterTrial(big);
  std::printf("cluster big trial: %d hosts, %llu events\n", big.host_count,
              static_cast<unsigned long long>(big_result.events_executed));
  std::uint64_t hung = big_result.hung ? 1 : 0;
  std::uint64_t census_failures = big_result.census_ok ? 0 : 1;

  // --- policy sweep ---------------------------------------------------------
  struct SweepPoint {
    int hosts;
    int threshold;
    int hysteresis;
    double dispersal;
  };
  std::vector<SweepPoint> points;
  for (int hosts : {24, 64}) {
    for (int threshold : {2, 4}) {
      for (int hysteresis : {0, 2}) {
        for (double dispersal : {0.0, 1.0}) {
          points.push_back(SweepPoint{hosts, threshold, hysteresis, dispersal});
        }
      }
    }
  }
  const std::vector<ClusterResult> sweep_results =
      ParallelMap(args->threads, points.size(), [&](std::size_t i) {
        const SweepPoint& pt = points[i];
        return RunClusterTrial(
            SweepTrialConfig(args->seed, pt.hosts, pt.threshold, pt.hysteresis, pt.dispersal));
      });

  Json sweep_rows = Json::Array{};
  for (const ClusterResult& result : sweep_results) {
    hung += result.hung ? 1 : 0;
    census_failures += result.census_ok ? 0 : 1;
    sweep_rows.Append(ClusterResultToJson(result));
  }

  Json report = Json::Object{};
  report["bench"] = Json("cluster");
  report["schema_version"] = Json(2);
  report["seed"] = Json(args->seed);
  report["hosts"] = Json(big.host_count);
  report["processes_arrived"] = Json(big_result.arrived);
  report["trial_count"] = Json(static_cast<std::uint64_t>(1 + points.size()));
  report["hung"] = Json(hung);
  report["census_failures"] = Json(census_failures);
  report["big_trial"] = ClusterResultToJson(big_result);
  report["policy_sweep"] = std::move(sweep_rows);

  AddGate(&report, "hung", hung, "==", 0);
  AddGate(&report, "census_failures", census_failures, "==", 0);
  return WriteReport(report, args->out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
