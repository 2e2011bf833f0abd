// Fleet-scale cluster bench: one datacenter-row churn trial (hundreds of
// hosts, tens of thousands of processes) run at 1, 2 and 8 shards —
// byte-identical results asserted, wall-clocks recorded — plus the policy
// sweep (threshold x hysteresis x dispersal_weight across cluster sizes).
// Emits BENCH_cluster.json gated on zero hangs, zero census failures and
// identical results across shard counts.
//
// The speedups are measurements, not gates: wall-clock moves with machine
// load, so it never decides a pass. On a single core the speedup comes from
// heap sharding alone (each shard's pending-event heap is an eighth the
// size: shorter sifts, warmer cache), so it is real but modest; wall-clocks
// are best-of-N to damp scheduler noise.
//
// Usage: cluster_sweep [--seed N] [--threads N] [--reps N] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/check.h"
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

double RunWallSeconds(ClusterConfig config, int shards, ClusterResult* out) {
  config.shards = shards;
  const auto start = std::chrono::steady_clock::now();
  ClusterResult result = RunClusterTrial(config);
  const auto stop = std::chrono::steady_clock::now();
  if (out != nullptr) {
    *out = std::move(result);
  }
  return std::chrono::duration<double>(stop - start).count();
}

int Main(int argc, char** argv) {
  std::uint64_t seed = 42;
  int threads = 0;
  int reps = 5;
  std::string out_path = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--seed N] [--threads N] [--reps N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  ACCENT_CHECK(reps >= 1);

  std::uint64_t hung = 0;
  std::uint64_t integrity_failures = 0;

  // --- big trial at 1 / 2 / 8 shards --------------------------------------
  const ClusterConfig big = BigTrialConfig(seed);
  ClusterResult big_result;
  std::string dump_1;
  bool identical = true;
  double wall_1 = 1e30;
  double wall_2 = 1e30;
  double wall_8 = 1e30;
  std::printf("=== cluster big trial: %d hosts, %d shards x %d reps ===\n",
              big.host_count, 3, reps);
  for (int rep = 0; rep < reps; ++rep) {
    for (int shards : {1, 2, 8}) {
      ClusterResult result;
      const double wall = RunWallSeconds(big, shards, &result);
      hung += result.hung ? 1 : 0;
      integrity_failures += result.census_ok ? 0 : 1;
      const std::string dump = ClusterResultToJson(result).Dump(2);
      if (shards == 1) {
        wall_1 = std::min(wall_1, wall);
        if (dump_1.empty()) {
          dump_1 = dump;
          big_result = std::move(result);
        }
      } else if (shards == 2) {
        wall_2 = std::min(wall_2, wall);
      } else {
        wall_8 = std::min(wall_8, wall);
      }
      if (dump != dump_1) {
        identical = false;
        std::fprintf(stderr, "trial JSON diverged at shards=%d rep=%d\n", shards, rep);
      }
      std::printf("  rep %d shards=%d wall=%.3fs events=%llu\n", rep, shards, wall,
                  static_cast<unsigned long long>(result.events_executed));
    }
  }
  const double speedup_2 = wall_1 / wall_2;
  const double speedup_8 = wall_1 / wall_8;

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
      ParallelMap(threads, points.size(), [&](std::size_t i) {
        const SweepPoint& pt = points[i];
        return RunClusterTrial(
            SweepTrialConfig(seed, pt.hosts, pt.threshold, pt.hysteresis, pt.dispersal));
      });

  Json sweep_rows = Json::Array{};
  for (const ClusterResult& result : sweep_results) {
    hung += result.hung ? 1 : 0;
    integrity_failures += result.census_ok ? 0 : 1;
    Json row = ClusterResultToJson(result);
    sweep_rows.Append(std::move(row));
  }

  Json report = Json::Object{};
  report["bench"] = Json("cluster");
  report["schema_version"] = Json(1);
  report["seed"] = Json(seed);
  report["reps"] = Json(reps);
  report["hosts"] = Json(big.host_count);
  report["processes_arrived"] = Json(big_result.arrived);
  report["trial_count"] = Json(static_cast<std::uint64_t>(3 * reps + points.size()));
  report["hung"] = Json(hung);
  report["integrity_failures"] = Json(integrity_failures);
  report["identical_across_shards"] = Json(identical);
  report["wall_seconds_shards_1"] = Json(wall_1);
  report["wall_seconds_shards_2"] = Json(wall_2);
  report["wall_seconds_shards_8"] = Json(wall_8);
  report["speedup_shards_2"] = Json(speedup_2);
  report["speedup_shards_8"] = Json(speedup_8);
  report["big_trial"] = ClusterResultToJson(big_result);
  report["policy_sweep"] = std::move(sweep_rows);

  AddGate(&report, "hung", hung, "==", 0);
  AddGate(&report, "integrity_failures", integrity_failures, "==", 0);
  AddGate(&report, "identical_across_shards", identical, "==", true);
  return WriteReport(report, out_path);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
