// Fault injection and the reliable transport built to survive it.
//
// The headline property (the ISSUE's acceptance bar): under any seeded
// drop + duplicate + reorder plan with no permanent partition, every
// migration completes and the destination's touched pages are
// byte-identical to the lossless run. Crash windows then exercise the
// other two verdicts — source-side rollback when the destination dies
// mid-transfer, and a terminal IOU fault (never a hang) when the source
// dies while copy-on-reference pages are still owed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/experiments/failure_sweep.h"
#include "src/experiments/testbed.h"
#include "src/net/fault.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// --- FaultInjector unit behaviour ----------------------------------------

TEST(FaultInjectorTest, TrivialPlanIsDisabled) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  FaultPlan lossy;
  lossy.drop = 0.01;
  EXPECT_TRUE(lossy.enabled());
  FaultPlan crashy;
  crashy.crashes.push_back(CrashWindow{HostId(1), Sec(1.0), Sec(2.0)});
  EXPECT_TRUE(crashy.enabled());
}

TEST(FaultInjectorTest, VerdictStreamIsSeedDeterministic) {
  FaultPlan plan;
  plan.drop = 0.2;
  plan.duplicate = 0.2;
  plan.delay = 0.3;
  plan.reorder = 0.3;
  FaultInjector a(plan, 99);
  FaultInjector b(plan, 99);
  FaultInjector c(plan, 100);
  bool any_difference_from_c = false;
  for (int i = 0; i < 2000; ++i) {
    const SimTime now = Us(i);
    const FaultVerdict va = a.Judge(HostId(1), HostId(2), now);
    const FaultVerdict vb = b.Judge(HostId(1), HostId(2), now);
    const FaultVerdict vc = c.Judge(HostId(1), HostId(2), now);
    EXPECT_EQ(va.lost, vb.lost);
    ASSERT_EQ(va.extra_delays.size(), vb.extra_delays.size());
    for (std::size_t d = 0; d < va.extra_delays.size(); ++d) {
      EXPECT_EQ(va.extra_delays[d], vb.extra_delays[d]);
    }
    if (va.lost != vc.lost || va.extra_delays != vc.extra_delays) {
      any_difference_from_c = true;
    }
  }
  EXPECT_TRUE(any_difference_from_c);  // a different seed draws differently
}

TEST(FaultInjectorTest, ExtremeProbabilitiesBehaveExactly) {
  FaultPlan drop_all;
  drop_all.drop = 1.0;
  FaultInjector dropper(drop_all, 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(dropper.Judge(HostId(1), HostId(2), SimTime{0}).lost);
  }
  EXPECT_EQ(dropper.stats().packets_dropped, 50u);

  FaultPlan dup_all;
  dup_all.duplicate = 1.0;
  FaultInjector duper(dup_all, 7);
  for (int i = 0; i < 50; ++i) {
    const FaultVerdict verdict = duper.Judge(HostId(1), HostId(2), SimTime{0});
    EXPECT_FALSE(verdict.lost);
    EXPECT_EQ(verdict.extra_delays.size(), 2u);
  }
  EXPECT_EQ(duper.stats().packets_duplicated, 50u);
}

TEST(FaultInjectorTest, CrashWindowsAndPartitionsBlockInInterval) {
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{HostId(2), Sec(1.0), Sec(2.0)});
  plan.crashes.push_back(CrashWindow{HostId(3), Sec(5.0), kFaultForever});
  plan.partitions.push_back(LinkPartition{HostId(1), HostId(4), Sec(1.0), Sec(2.0)});
  FaultInjector injector(plan, 7);

  EXPECT_FALSE(injector.HostDown(HostId(2), Ms(999)));
  EXPECT_TRUE(injector.HostDown(HostId(2), Sec(1.0)));
  EXPECT_TRUE(injector.HostDown(HostId(2), Ms(1999)));
  EXPECT_FALSE(injector.HostDown(HostId(2), Sec(2.0)));  // end exclusive
  EXPECT_TRUE(injector.HostDown(HostId(3), Sec(100000.0)));  // permanent

  // Partitions are symmetric; unrelated pairs are unaffected.
  EXPECT_TRUE(injector.LinkCut(HostId(1), HostId(4), Sec(1.5)));
  EXPECT_TRUE(injector.LinkCut(HostId(4), HostId(1), Sec(1.5)));
  EXPECT_FALSE(injector.LinkCut(HostId(1), HostId(4), Sec(2.5)));
  EXPECT_FALSE(injector.LinkCut(HostId(1), HostId(2), Sec(1.5)));

  // A blocked transmission is lost and accounted as blocked, not dropped.
  EXPECT_TRUE(injector.Judge(HostId(1), HostId(2), Sec(1.5)).lost);
  EXPECT_TRUE(injector.Judge(HostId(2), HostId(1), Sec(1.5)).lost);
  EXPECT_EQ(injector.stats().packets_blocked, 2u);
  EXPECT_EQ(injector.stats().packets_dropped, 0u);
}

// --- lossless path stays untouched ----------------------------------------

TEST(FaultWiringTest, DefaultTestbedCarriesNoFaultMachinery) {
  Testbed bed;
  EXPECT_EQ(bed.fault_injector(), nullptr);
  for (int host = 0; host < bed.host_count(); ++host) {
    EXPECT_FALSE(bed.netmsg(host)->reliable());
    EXPECT_EQ(bed.netmsg(host)->stats().acks_sent, 0u);
  }
  EXPECT_EQ(bed.network().deliveries_lost(), 0u);
}

TEST(FaultWiringTest, FaultPlanSwitchesOnReliableTransport) {
  TestbedConfig config;
  config.fault_plan.drop = 0.05;
  Testbed bed(config);
  ASSERT_NE(bed.fault_injector(), nullptr);
  for (int host = 0; host < bed.host_count(); ++host) {
    EXPECT_TRUE(bed.netmsg(host)->reliable());
  }
}

TEST(FaultWiringTest, RunGuardedFlagsEventsBeyondTheHorizon) {
  Testbed bed;
  EXPECT_TRUE(bed.RunGuarded(Sec(1.0)));  // empty queue drains trivially
  bed.sim().ScheduleAfter(Sec(7200.0), []() {});
  EXPECT_FALSE(bed.RunGuarded(Sec(3600.0)));
  EXPECT_EQ(bed.sim().pending_events(), 1u);
  EXPECT_TRUE(bed.RunGuarded(Sec(7200.0)));  // reachable after all
}

// --- the acceptance property ----------------------------------------------

// Any seeded drop+duplicate+delay+reorder plan (no partitions, no crashes):
// the migration must complete and the destination's touched pages must be
// byte-identical to the lossless baseline, for a randomly drawn workload
// and strategy.
class LossyPlanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossyPlanProperty, AnyLossyPlanCompletesByteIdentical) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);

  FailureScenario scenario;
  scenario.name = "random";
  scenario.faults.drop = 0.01 + 0.07 * rng.NextDouble();
  scenario.faults.duplicate = 0.08 * rng.NextDouble();
  scenario.faults.delay = 0.25 * rng.NextDouble();
  scenario.faults.reorder = 0.30 * rng.NextDouble();

  const std::vector<WorkloadSpec>& workloads = RepresentativeWorkloads();
  const std::string workload = workloads[rng.NextBelow(workloads.size())].name;
  const auto strategy = static_cast<TransferStrategy>(rng.NextBelow(3));
  SCOPED_TRACE(workload + "/" + StrategyName(strategy) + " drop=" +
               std::to_string(scenario.faults.drop) + " dup=" +
               std::to_string(scenario.faults.duplicate) +
               " reorder=" + std::to_string(scenario.faults.reorder));

  const MechRun baseline = RunFailureBaseline(workload, strategy, seed);
  const FailureTrialResult trial =
      RunFailureTrial(workload, strategy, scenario, baseline, seed);

  EXPECT_EQ(trial.outcome, FailureOutcome::kCompleted);
  EXPECT_TRUE(trial.integrity_ok);
  EXPECT_GE(trial.slowdown, 1.0);  // retries never make it faster
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyPlanProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LossyTransport, RetriesAndDedupDoRealWork) {
  // A bulk transfer under the acceptance recipe must actually exercise the
  // machinery: packets lost on the wire, fragments retransmitted,
  // duplicates suppressed at the receiver — and still land intact.
  FailureScenario lossy = FailureScenarios()[1];
  ASSERT_EQ(lossy.name, "lossy5");
  const MechRun baseline =
      RunFailureBaseline("Lisp-Del", TransferStrategy::kPureCopy, 42);
  const FailureTrialResult trial =
      RunFailureTrial("Lisp-Del", TransferStrategy::kPureCopy, lossy, baseline, 42);
  EXPECT_EQ(trial.outcome, FailureOutcome::kCompleted);
  EXPECT_TRUE(trial.integrity_ok);
  EXPECT_GT(trial.deliveries_lost, 0u);
  EXPECT_GT(trial.fragments_retransmitted, 0u);
  EXPECT_GT(trial.retransmit_bytes, 0u);
  EXPECT_GT(trial.duplicates_suppressed, 0u);
  EXPECT_EQ(trial.transfers_dead_lettered, 0u);
}

// --- crash windows ---------------------------------------------------------

TEST(CrashScenarios, DestinationCrashAbortsAndRollsBack) {
  const FailureScenario& dest_crash = FailureScenarios()[2];
  ASSERT_TRUE(dest_crash.faults.crash_dest);
  for (TransferStrategy strategy : {TransferStrategy::kPureCopy, TransferStrategy::kPureIou,
                                    TransferStrategy::kResidentSet}) {
    SCOPED_TRACE(StrategyName(strategy));
    const MechRun baseline = RunFailureBaseline("PM-Mid", strategy, 42);
    const FailureTrialResult trial =
        RunFailureTrial("PM-Mid", strategy, dest_crash, baseline, 42);
    EXPECT_EQ(trial.outcome, FailureOutcome::kAborted);
    EXPECT_TRUE(trial.rolled_back);
    // The rolled-back process reran its trace at home over identical data.
    EXPECT_TRUE(trial.integrity_ok);
    EXPECT_GT(trial.finished.count(), 0);
    EXPECT_GT(trial.transfers_dead_lettered, 0u);
  }
}

TEST(CrashScenarios, SourceCrashIsTerminalFaultForIouButSurvivedByPureCopy) {
  const FailureScenario& source_crash = FailureScenarios()[3];
  ASSERT_TRUE(source_crash.faults.crash_source);

  // Pure-copy carries no residual dependency: the source's death after
  // resumption must be invisible.
  const MechRun copy_base =
      RunFailureBaseline("PM-Mid", TransferStrategy::kPureCopy, 42);
  const FailureTrialResult copy_trial =
      RunFailureTrial("PM-Mid", TransferStrategy::kPureCopy, source_crash, copy_base, 42);
  EXPECT_EQ(copy_trial.outcome, FailureOutcome::kCompleted);
  EXPECT_TRUE(copy_trial.integrity_ok);

  // Pure-IOU owes every page to the dead source: the next fetch can never
  // be satisfied and must surface as a terminal fault — not a hang.
  const MechRun iou_base =
      RunFailureBaseline("PM-Mid", TransferStrategy::kPureIou, 42);
  const FailureTrialResult iou_trial =
      RunFailureTrial("PM-Mid", TransferStrategy::kPureIou, source_crash, iou_base, 42);
  EXPECT_EQ(iou_trial.outcome, FailureOutcome::kTerminalFault);
  EXPECT_GT(iou_trial.transfers_dead_lettered, 0u);
}

// --- matrix plumbing -------------------------------------------------------

TEST(FailureMatrixTest, ScenarioGridIsStable) {
  const std::vector<FailureScenario>& scenarios = FailureScenarios();
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].name, "drop2");
  EXPECT_EQ(scenarios[1].name, "lossy5");
  EXPECT_DOUBLE_EQ(scenarios[1].faults.drop, 0.05);
  EXPECT_DOUBLE_EQ(scenarios[1].faults.duplicate, 0.05);
  EXPECT_GT(scenarios[1].faults.reorder, 0.0);
  EXPECT_EQ(scenarios[2].name, "dest_crash");
  EXPECT_EQ(scenarios[3].name, "source_crash");
}

TEST(FailureMatrixTest, JsonCarriesCountsAndTrials) {
  FailureMatrix matrix;
  FailureTrialResult trial;
  trial.workload = "Minprog";
  trial.strategy = TransferStrategy::kPureIou;
  trial.scenario = "lossy5";
  trial.outcome = FailureOutcome::kCompleted;
  trial.integrity_ok = true;
  matrix.trials.push_back(trial);
  matrix.completed = 1;

  const Json json = FailureMatrixToJson(matrix);
  EXPECT_EQ(json.Get("bench").AsString(), "failure_matrix");
  EXPECT_EQ(json.Get("completed").AsUint64(), 1u);
  EXPECT_EQ(json.Get("hung").AsUint64(), 0u);
  ASSERT_EQ(json.Get("trials").AsArray().size(), 1u);
  const Json& entry = json.Get("trials").AsArray()[0];
  EXPECT_EQ(entry.Get("outcome").AsString(), "completed");
  EXPECT_EQ(entry.Get("strategy").AsString(), std::string(StrategyName(trial.strategy)));
  // Canonical: equal matrices dump byte-identically.
  EXPECT_EQ(json.Dump(2), FailureMatrixToJson(matrix).Dump(2));
}

}  // namespace
}  // namespace accent
