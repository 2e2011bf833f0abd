// Determinism contract of the parallel sweep engine: for any thread count,
// results must be byte-identical — every reported field — to the serial
// sweep. Also covers the ACCENT_SWEEP_THREADS / thread-pool plumbing
// underneath.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/experiments/chain.h"
#include "src/experiments/failure_sweep.h"
#include "src/experiments/metrics_fold.h"
#include "src/experiments/sweep.h"
#include "src/experiments/trial.h"
#include "src/workloads/workload.h"
#include "tests/digest.h"

namespace accent {
namespace {

// FNV-1a digests of the serial report dumps of the failure matrix and of
// Minprog's chain grid at seed 42. Every per-run row in them is the shared
// MechRowToJson row plus its family's own keys (src/experiments/scenario.h),
// so any change to a simulated number, verdict or key in these reports, or
// to the shared row, moves the digest.
constexpr std::uint64_t kFailureMatrixDigest = 0xbcd3be7eb9f9dc10ull;
constexpr std::uint64_t kMinprogChainDigest = 0x51d9340ff19fb579ull;

// The paper grid through the one runner: every one of the 77 specs' rows,
// verdict included, and its traffic series come out equal at 1, 2 and 8
// threads.
TEST(ParallelSweep, MatchesSerialSweepUnder1And2And8Threads) {
  std::vector<FuzzScenario> specs;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    for (const FuzzScenario& cell : PaperGridSpecs(spec.name)) {
      specs.push_back(cell);
    }
  }
  ASSERT_EQ(specs.size(), 77u);
  const std::vector<MechTrial> serial = RunMechTrials(specs, 1);
  for (int threads : {2, 8}) {
    const std::vector<MechTrial> parallel = RunMechTrials(specs, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " trial=" + std::to_string(i));
      EXPECT_EQ(PaperRowToJson(parallel[i]).Dump(), PaperRowToJson(serial[i]).Dump());
      EXPECT_TRUE(parallel[i].run.series == serial[i].run.series);
    }
  }
}

TEST(ParallelSweep, GridOrderMatchesSerialContract) {
  const std::vector<TrialConfig> configs = StrategySweepConfigs("Chess", 7);
  ASSERT_EQ(configs.size(), 11u);
  EXPECT_EQ(configs[0].strategy, TransferStrategy::kPureCopy);
  for (std::size_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(configs[i].strategy, TransferStrategy::kPureIou);
    EXPECT_EQ(configs[i].prefetch, kPaperPrefetchValues[i - 1]);
  }
  for (std::size_t i = 6; i <= 10; ++i) {
    EXPECT_EQ(configs[i].strategy, TransferStrategy::kResidentSet);
    EXPECT_EQ(configs[i].prefetch, kPaperPrefetchValues[i - 6]);
  }
  for (const TrialConfig& config : configs) {
    EXPECT_EQ(config.workload, "Chess");
    EXPECT_EQ(config.seed, 7u);
  }
}

TEST(ParallelSweep, FailureMatrixIsByteIdenticalAcross1And2And8Threads) {
  // Fault-injection trials consume extra randomness (every packet verdict
  // draws from the injector's Rng), so this is the sharper determinism
  // claim: the verdict stream is keyed to each trial's private simulator,
  // never to wall-clock interleaving. The canonical JSON dump covers every
  // outcome, counter and checksum in one comparison. The thread count goes
  // in through ACCENT_SWEEP_THREADS to exercise the same plumbing CI uses.
  std::string reference;
  for (const char* threads : {"1", "2", "8"}) {
    ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", threads, 1), 0);
    const std::string dump = FailureMatrixToJson(RunFailureMatrix(42, 0)).Dump(2);
    if (reference.empty()) {
      reference = dump;
      EXPECT_NE(reference.find("\"hung\": 0"), std::string::npos);
      EXPECT_EQ(Fnv1aDigest(reference), kFailureMatrixDigest)
          << "failure matrix changed: new digest 0x" << std::hex << Fnv1aDigest(reference);
    } else {
      EXPECT_EQ(dump, reference) << "threads=" << threads;
    }
  }
  ASSERT_EQ(unsetenv("ACCENT_SWEEP_THREADS"), 0);
}

TEST(ParallelSweep, ChainSweepIsByteIdenticalAcross1And2And8Threads) {
  // The A -> B -> C chain grid runs three-host testbeds with a mid-trace
  // re-migration and an IOU-chain collapse per trial; the same determinism
  // contract holds: thread count cannot reach any result.
  const std::vector<FuzzScenario> specs = ChainSweepSpecs("Minprog", 42);
  const std::string serial = ChainSweepToJson(RunMechTrials(specs, 1), {}).Dump(2);
  EXPECT_NE(serial.find("\"hung\": 0"), std::string::npos);
  EXPECT_EQ(Fnv1aDigest(serial), kMinprogChainDigest)
      << "chain sweep changed: new digest 0x" << std::hex << Fnv1aDigest(serial);
  EXPECT_EQ(ChainSweepToJson(RunMechTrials(specs, 2), {}).Dump(2), serial);
  EXPECT_EQ(ChainSweepToJson(RunMechTrials(specs, 8), {}).Dump(2), serial);
}

TEST(SweepThreads, EnvVarOverridesAndClamps) {
  ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(SweepThreadCount(), 3);
  // Non-positive and garbage values fall back to the hardware default.
  ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", "0", 1), 0);
  EXPECT_EQ(SweepThreadCount(), HardwareThreads());
  ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", "-4", 1), 0);
  EXPECT_EQ(SweepThreadCount(), HardwareThreads());
  ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", "lots", 1), 0);
  EXPECT_EQ(SweepThreadCount(), HardwareThreads());
  ASSERT_EQ(unsetenv("ACCENT_SWEEP_THREADS"), 0);
  EXPECT_GE(SweepThreadCount(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(257);
    ParallelFor(threads, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace accent
