// Full-stack contract of the fleet-scale cluster layer (RunClusterTrial):
// pinned digests of four trials' canonical JSON, census integrity under
// continuous churn, balancer policy effects, the strategy-dependent
// downtime ordering the paper predicts, steady-state detection and the
// event-budget watchdog.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/experiments/cluster.h"
#include "tests/digest.h"

namespace accent {
namespace {

// Small but busy: enough churn that the balancer fires and every code path
// (migration, IOU pulls, completions) runs, yet a trial stays ~100ms wall.
ClusterConfig TestConfig() {
  ClusterConfig config;
  config.host_count = 12;
  config.duration = Sec(60.0);
  config.initial_processes_per_host = 6;
  config.arrivals_per_host_per_sec = 0.5;
  config.mean_service_sec = 15.0;
  config.policy.sample_period = Sec(2.0);
  return config;
}

TEST(Cluster, CensusBalancesAndMigrationsFlow) {
  const ClusterResult result = RunClusterTrial(TestConfig());
  EXPECT_FALSE(result.hung);
  EXPECT_TRUE(result.census_ok);
  EXPECT_EQ(result.arrived, result.completed + result.resident_end +
                                (result.outbound_started - result.inbound_landed));
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.migrations_completed, 0u);
  EXPECT_GE(result.migrations_started, result.migrations_completed);
  // The default strategy is pure-IOU: debt is left behind and repaid in
  // batches, so pulls must actually happen.
  EXPECT_GT(result.pull_batches, 0u);
  EXPECT_GT(result.pages_pulled, 0u);
  EXPECT_GT(result.samples_taken, 0u);
  EXPECT_GT(result.transmissions, 0u);
  EXPECT_GT(result.queueing_p99, result.queueing_p50);
}

TEST(Cluster, HigherThresholdMigratesLess) {
  ClusterConfig eager = TestConfig();
  eager.policy.imbalance_threshold = 2;
  ClusterConfig lazy = TestConfig();
  lazy.policy.imbalance_threshold = 8;
  const ClusterResult eager_result = RunClusterTrial(eager);
  const ClusterResult lazy_result = RunClusterTrial(lazy);
  EXPECT_GT(eager_result.migrations_completed, lazy_result.migrations_completed);
}

TEST(Cluster, HysteresisDelaysFiring) {
  ClusterConfig twitchy = TestConfig();
  twitchy.policy.hysteresis = 0;
  ClusterConfig patient = TestConfig();
  patient.policy.hysteresis = 4;
  EXPECT_GE(RunClusterTrial(twitchy).migrations_completed,
            RunClusterTrial(patient).migrations_completed);
}

TEST(Cluster, PureCopyFreezesLongerThanPureIou) {
  // Pure-copy ships every real page inside the freeze window; pure-IOU
  // ships descriptors and repays lazily. The paper's headline claim, at
  // fleet scale: copy-on-reference slashes the freeze (downtime) tail.
  ClusterConfig iou = TestConfig();
  iou.policy.strategy = TransferStrategy::kPureIou;
  ClusterConfig copy = TestConfig();
  copy.policy.strategy = TransferStrategy::kPureCopy;
  const ClusterResult iou_result = RunClusterTrial(iou);
  const ClusterResult copy_result = RunClusterTrial(copy);
  ASSERT_GT(iou_result.migrations_completed, 0u);
  ASSERT_GT(copy_result.migrations_completed, 0u);
  EXPECT_GT(copy_result.downtime_p50, iou_result.downtime_p50);
  // And pure-copy leaves no debt behind.
  EXPECT_EQ(copy_result.pages_pulled, 0u);
}

TEST(Cluster, DetectsSteadyStateOnLongEnoughRuns) {
  ClusterConfig config = TestConfig();
  config.duration = Sec(120.0);
  const ClusterResult result = RunClusterTrial(config);
  EXPECT_TRUE(result.steady_detected);
  EXPECT_GT(result.steady_at, SimTime{0});
  EXPECT_LT(result.steady_at, SimTime{config.duration});
  EXPECT_GT(result.steady_migrations_per_sec, 0.0);
}

TEST(Cluster, WatchdogTripsOnTinyEventBudget) {
  ClusterConfig config = TestConfig();
  config.max_events = 5000;  // far below what the trial needs
  const ClusterResult result = RunClusterTrial(config);
  EXPECT_TRUE(result.hung);
  // The trial still returns what it saw instead of spinning forever.
  EXPECT_GT(result.arrived, 0u);
  EXPECT_LT(result.arrived, RunClusterTrial(TestConfig()).arrived);
}

// A representative heterogeneous fleet: a third of the hosts run fast
// CPUs, a third slow links, and two hosts are diskless.
std::vector<HostCalibration> MixedCalibrations(int host_count) {
  std::vector<HostCalibration> calibrations(static_cast<std::size_t>(host_count));
  for (int i = 0; i < host_count; ++i) {
    HostCalibration& cal = calibrations[static_cast<std::size_t>(i)];
    if (i % 3 == 1) {
      cal.cpu_multiplier = 4.0;
    } else if (i % 3 == 2) {
      cal.wire_latency_multiplier = 2.0;
      cal.wire_bandwidth_multiplier = 0.5;
    }
    cal.diskless = i < 2;
  }
  return calibrations;
}

TEST(Cluster, DisklessHostsNeverAnchorBacking) {
  // Under an owed-page strategy the balancer degrades any migration off a
  // diskless host to pure-copy; the invariant counter proves no
  // copy-on-reference debt was ever anchored where no spindle can serve it.
  ClusterConfig config = TestConfig();
  config.calibrations = MixedCalibrations(config.host_count);
  config.policy.strategy = TransferStrategy::kPureIou;
  const ClusterResult result = RunClusterTrial(config);
  EXPECT_FALSE(result.hung);
  EXPECT_TRUE(result.census_ok);
  ASSERT_GT(result.migrations_completed, 0u);
  EXPECT_EQ(result.diskless_backing_anchors, 0u);
  EXPECT_GT(result.diskless_copy_forced, 0u);
}

TEST(Cluster, FasterFleetFinishesMoreWork) {
  // Crank every CPU to 4x: the same arrival stream must complete at least
  // as many processes as the homogeneous fleet (slices shrink by the
  // multiplier), and the homogeneous run is untouched by the empty vector.
  ClusterConfig slow = TestConfig();
  ClusterConfig fast = TestConfig();
  fast.calibrations.assign(static_cast<std::size_t>(fast.host_count), HostCalibration{});
  for (HostCalibration& cal : fast.calibrations) {
    cal.cpu_multiplier = 4.0;
  }
  const ClusterResult slow_result = RunClusterTrial(slow);
  const ClusterResult fast_result = RunClusterTrial(fast);
  EXPECT_GT(fast_result.completed, slow_result.completed);
}

// A shorter ten-host row with a lighter service mix.
ClusterConfig TenHostConfig() {
  ClusterConfig config;
  config.host_count = 10;
  config.duration = Sec(40.0);
  config.initial_processes_per_host = 5;
  config.arrivals_per_host_per_sec = 0.5;
  config.mean_service_sec = 12.0;
  config.policy.sample_period = Sec(2.0);
  return config;
}

// FNV-1a digest of a trial's canonical JSON: any change to a simulated
// number or key of a fleet trial moves it.
void ExpectTrialJsonDigest(const ClusterConfig& config, std::uint64_t digest) {
  const std::string json = ClusterResultToJson(RunClusterTrial(config)).Dump(2);
  EXPECT_NE(json.find("\"census_ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"hung\": false"), std::string::npos);
  EXPECT_EQ(Fnv1aDigest(json), digest)
      << "fleet trial changed: new digest 0x" << std::hex << Fnv1aDigest(json);
  if (config.content_cache) {
    EXPECT_EQ(json.find("\"pages_deduped\": 0,"), std::string::npos)
        << "the cached trial must actually dedup pages";
  }
}

TEST(Cluster, ResultJsonMatchesPinnedDigest) {
  ExpectTrialJsonDigest(TestConfig(), 0xcea7cb4a3c4aefa8ull);
}

TEST(Cluster, MixedCalibrationsJsonMatchesPinnedDigest) {
  ClusterConfig mixed = TestConfig();
  mixed.calibrations = MixedCalibrations(mixed.host_count);
  ExpectTrialJsonDigest(mixed, 0x896a7a4922035b29ull);
}

TEST(Cluster, TenHostTrialJsonMatchesPinnedDigest) {
  ExpectTrialJsonDigest(TenHostConfig(), 0x7aa6f4d9ee405478ull);
}

TEST(Cluster, CachedTenHostTrialJsonMatchesPinnedDigest) {
  ClusterConfig cached = TenHostConfig();
  cached.content_cache = true;
  cached.content_cache_pages = 256;  // small enough to force evictions
  ExpectTrialJsonDigest(cached, 0xf3b184b603fd7fc7ull);
}

}  // namespace
}  // namespace accent
