// Full-stack contract of the fleet-scale cluster layer (RunClusterTrial):
// the determinism guarantee (byte-identical results for every shard count),
// census integrity under continuous churn,
// balancer policy effects, the strategy-dependent downtime ordering the
// paper predicts, steady-state detection, the event-budget watchdog and
// the ACCENT_SIM_SHARDS knob.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/experiments/cluster.h"

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

TEST(Cluster, ResultIsByteIdenticalAcross1And2And8Shards) {
  ClusterConfig config = TestConfig();
  config.shards = 1;
  const std::string reference = ClusterResultToJson(RunClusterTrial(config)).Dump(2);
  EXPECT_NE(reference.find("\"census_ok\": true"), std::string::npos);
  for (int shards : {2, 4, 8}) {
    config.shards = shards;
    EXPECT_EQ(ClusterResultToJson(RunClusterTrial(config)).Dump(2), reference)
        << "shards=" << shards;
  }
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

TEST(Cluster, MixedCalibrationsStayByteIdenticalAcrossShards) {
  // The shard-count determinism contract must survive heterogeneity: the
  // calibrated cost paths go through the same deterministic engine.
  ClusterConfig config = TestConfig();
  config.calibrations = MixedCalibrations(config.host_count);
  config.shards = 1;
  const std::string reference = ClusterResultToJson(RunClusterTrial(config)).Dump(2);
  EXPECT_NE(reference.find("\"census_ok\": true"), std::string::npos);
  config.shards = 2;
  EXPECT_EQ(ClusterResultToJson(RunClusterTrial(config)).Dump(2), reference);
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

TEST(Cluster, ShardEnvKnobParsesAndClamps) {
  ASSERT_EQ(unsetenv("ACCENT_SIM_SHARDS"), 0);
  EXPECT_EQ(SimShardCount(), 1);  // never configured: serial-equivalent default
  ASSERT_EQ(setenv("ACCENT_SIM_SHARDS", "8", 1), 0);
  EXPECT_EQ(SimShardCount(), 8);
  ASSERT_EQ(setenv("ACCENT_SIM_SHARDS", "9999", 1), 0);
  EXPECT_EQ(SimShardCount(), 64);  // clamped
  ASSERT_EQ(setenv("ACCENT_SIM_SHARDS", "0", 1), 0);
  EXPECT_EQ(SimShardCount(), 1);
  ASSERT_EQ(setenv("ACCENT_SIM_SHARDS", "garbage", 1), 0);
  EXPECT_EQ(SimShardCount(), 1);
  ASSERT_EQ(unsetenv("ACCENT_SIM_SHARDS"), 0);
}

TEST(Cluster, ConfigZeroShardsReadsEnvKnob) {
  // shards == 0 defers to ACCENT_SIM_SHARDS; the result must still match
  // the explicit shards=1 run byte for byte (the knob is engine-only).
  ClusterConfig explicit_one = TestConfig();
  explicit_one.shards = 1;
  const std::string reference =
      ClusterResultToJson(RunClusterTrial(explicit_one)).Dump(2);

  ClusterConfig from_env = TestConfig();
  from_env.shards = 0;
  ASSERT_EQ(setenv("ACCENT_SIM_SHARDS", "3", 1), 0);
  EXPECT_EQ(ClusterResultToJson(RunClusterTrial(from_env)).Dump(2), reference);
  ASSERT_EQ(unsetenv("ACCENT_SIM_SHARDS"), 0);
}

}  // namespace
}  // namespace accent
