// Determinism contract of the parallel sweep engine: for any thread count,
// results must be byte-identical — every TrialResult metric field — to the
// serial sweep. Also covers the ACCENT_SWEEP_THREADS / thread-pool plumbing
// underneath.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/experiments/chain.h"
#include "src/experiments/cluster.h"
#include "src/experiments/failure_sweep.h"
#include "src/experiments/sweep.h"
#include "src/experiments/sweep_cache.h"
#include "src/experiments/trial.h"
#include "src/workloads/workload.h"
#include "tests/digest.h"

namespace accent {
namespace {

// FNV-1a digests of the serial report dumps, recorded before the failure,
// chain, pre-copy and fuzz families moved onto the shared scenario runner
// (src/experiments/scenario.h): any change to a simulated number, verdict
// or key in these reports moves the digest.
constexpr std::uint64_t kFailureMatrixDigest = 0x365165bd114f6093ull;
constexpr std::uint64_t kMinprogChainDigest = 0xd0383cf6d7f02a0full;

// Field-by-field equality for every metric the evaluation reports. Exact
// (==) on purpose: the engines must agree bit-for-bit, not approximately.
void ExpectTrialResultsIdentical(const TrialResult& a, const TrialResult& b,
                                 const std::string& label) {
  SCOPED_TRACE(label);
  // Config echo.
  EXPECT_EQ(a.config.workload, b.config.workload);
  EXPECT_EQ(a.config.strategy, b.config.strategy);
  EXPECT_EQ(a.config.prefetch, b.config.prefetch);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.config.iou_caching, b.config.iou_caching);
  EXPECT_EQ(a.config.frames_per_host, b.config.frames_per_host);
  EXPECT_EQ(a.config.traffic_bucket, b.config.traffic_bucket);
  // Spec echo.
  EXPECT_EQ(a.spec.name, b.spec.name);
  EXPECT_EQ(a.spec.real_bytes, b.spec.real_bytes);
  EXPECT_EQ(a.spec.zero_bytes, b.spec.zero_bytes);
  EXPECT_EQ(a.spec.resident_bytes, b.spec.resident_bytes);
  EXPECT_EQ(a.spec.touched_real_pages, b.spec.touched_real_pages);
  EXPECT_EQ(a.spec.compute, b.spec.compute);
  // Migration phases.
  EXPECT_EQ(a.migration.requested, b.migration.requested);
  EXPECT_EQ(a.migration.excise_done, b.migration.excise_done);
  EXPECT_EQ(a.migration.core_sent, b.migration.core_sent);
  EXPECT_EQ(a.migration.rimas_sent, b.migration.rimas_sent);
  EXPECT_EQ(a.migration.excise_amap, b.migration.excise_amap);
  EXPECT_EQ(a.migration.excise_rimas, b.migration.excise_rimas);
  EXPECT_EQ(a.migration.excise_overall, b.migration.excise_overall);
  EXPECT_EQ(a.migration.core_arrived, b.migration.core_arrived);
  EXPECT_EQ(a.migration.rimas_arrived, b.migration.rimas_arrived);
  EXPECT_EQ(a.migration.insert_time, b.migration.insert_time);
  EXPECT_EQ(a.migration.resumed, b.migration.resumed);
  EXPECT_EQ(a.migration.resident_bytes_shipped, b.migration.resident_bytes_shipped);
  EXPECT_EQ(a.migration.precopy_rounds, b.migration.precopy_rounds);
  EXPECT_EQ(a.migration.precopy_bytes, b.migration.precopy_bytes);
  EXPECT_EQ(a.migration.frozen, b.migration.frozen);
  // Completion and traffic.
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.remote_exec, b.remote_exec);
  EXPECT_EQ(a.bytes_total, b.bytes_total);
  EXPECT_EQ(a.bytes_control, b.bytes_control);
  EXPECT_EQ(a.bytes_core, b.bytes_core);
  EXPECT_EQ(a.bytes_bulk, b.bytes_bulk);
  EXPECT_EQ(a.bytes_fault, b.bytes_fault);
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.netmsg_busy, b.netmsg_busy);
  EXPECT_EQ(a.series_bucket, b.series_bucket);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].start, b.series[i].start) << "bucket " << i;
    EXPECT_EQ(a.series[i].bytes, b.series[i].bytes) << "bucket " << i;
  }
  // Destination pager.
  EXPECT_EQ(a.dest_pager.resident_hits, b.dest_pager.resident_hits);
  EXPECT_EQ(a.dest_pager.fillzero_faults, b.dest_pager.fillzero_faults);
  EXPECT_EQ(a.dest_pager.disk_faults, b.dest_pager.disk_faults);
  EXPECT_EQ(a.dest_pager.cow_faults, b.dest_pager.cow_faults);
  EXPECT_EQ(a.dest_pager.imag_faults, b.dest_pager.imag_faults);
  EXPECT_EQ(a.dest_pager.imag_pages_fetched, b.dest_pager.imag_pages_fetched);
  EXPECT_EQ(a.dest_pager.prefetched_pages, b.dest_pager.prefetched_pages);
  EXPECT_EQ(a.dest_pager.prefetch_hits, b.dest_pager.prefetch_hits);
  EXPECT_EQ(a.dest_pager.pageouts, b.dest_pager.pageouts);
  EXPECT_EQ(a.dest_pager.address_errors, b.dest_pager.address_errors);
  EXPECT_EQ(a.dest_pager.failed_fetches, b.dest_pager.failed_fetches);
  EXPECT_EQ(a.real_bytes_transferred, b.real_bytes_transferred);

  // Belt and braces: the canonical JSON dumps must also match byte for
  // byte, which covers any field a future PR adds but forgets to list here.
  EXPECT_EQ(TrialResultToJson(a).Dump(), TrialResultToJson(b).Dump());
}

TEST(ParallelSweep, MatchesSerialSweepUnder1And2And8Threads) {
  const std::string workload = "Minprog";
  const std::vector<TrialResult> serial = RunStrategySweep(workload);
  ASSERT_EQ(serial.size(), 11u);  // copy + 2 strategies x 5 prefetch values

  for (int threads : {1, 2, 8}) {
    const std::vector<TrialResult> parallel =
        RunStrategySweepParallel(workload, 42, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ExpectTrialResultsIdentical(serial[i], parallel[i],
                                  "threads=" + std::to_string(threads) + " trial=" +
                                      std::to_string(i));
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
  const std::vector<ChainTrialConfig> configs = ChainSweepConfigs("Minprog", 42);
  const std::string serial = ChainSweepToJson(RunChainTrials(configs, 1), {}).Dump(2);
  EXPECT_NE(serial.find("\"hung\": 0"), std::string::npos);
  EXPECT_EQ(Fnv1aDigest(serial), kMinprogChainDigest)
      << "chain sweep changed: new digest 0x" << std::hex << Fnv1aDigest(serial);
  EXPECT_EQ(ChainSweepToJson(RunChainTrials(configs, 2), {}).Dump(2), serial);
  EXPECT_EQ(ChainSweepToJson(RunChainTrials(configs, 8), {}).Dump(2), serial);
}

TEST(ParallelSweep, ClusterTrialIsByteIdenticalAcross1And2And8Shards) {
  // The sharded-core determinism contract, stated where the other engine
  // determinism contracts live: a fleet trial's canonical JSON is identical
  // for every shard count, including with real worker threads underneath
  // (which is what the tsan preset exercises here).
  ClusterConfig config;
  config.host_count = 10;
  config.duration = Sec(40.0);
  config.initial_processes_per_host = 5;
  config.arrivals_per_host_per_sec = 0.5;
  config.mean_service_sec = 12.0;
  config.policy.sample_period = Sec(2.0);
  config.shards = 1;
  const std::string reference =
      ClusterResultToJson(RunClusterTrial(config)).Dump(2);
  EXPECT_NE(reference.find("\"hung\": false"), std::string::npos);
  EXPECT_NE(reference.find("\"census_ok\": true"), std::string::npos);
  for (int shards : {2, 8}) {
    config.shards = shards;
    config.shard_threads = 2;
    EXPECT_EQ(ClusterResultToJson(RunClusterTrial(config)).Dump(2), reference)
        << "shards=" << shards;
  }
}

TEST(ParallelSweep, CachedClusterTrialIsByteIdenticalAcross1And2And8Shards) {
  // Same contract with the content cache on: all dedup state (per-host
  // class caches, confirm accounting) is owned by destination-shard events,
  // so the fleet cache must not cost a byte of determinism.
  ClusterConfig config;
  config.host_count = 10;
  config.duration = Sec(40.0);
  config.initial_processes_per_host = 5;
  config.arrivals_per_host_per_sec = 0.5;
  config.mean_service_sec = 12.0;
  config.policy.sample_period = Sec(2.0);
  config.content_cache = true;
  config.content_cache_pages = 256;  // small enough to force evictions
  config.shards = 1;
  const std::string reference =
      ClusterResultToJson(RunClusterTrial(config)).Dump(2);
  EXPECT_NE(reference.find("\"hung\": false"), std::string::npos);
  EXPECT_NE(reference.find("\"census_ok\": true"), std::string::npos);
  EXPECT_EQ(reference.find("\"pages_deduped\": 0,"), std::string::npos)
      << "the cached trial must actually dedup pages";
  for (int shards : {2, 8}) {
    config.shards = shards;
    config.shard_threads = 2;
    EXPECT_EQ(ClusterResultToJson(RunClusterTrial(config)).Dump(2), reference)
        << "shards=" << shards;
  }
}

TEST(ParallelSweep, GoldenDigestHoldsWithShardKnobSet) {
  // ACCENT_SIM_SHARDS selects the engine for cluster trials only; the
  // classic two-host testbeds never call ConfigureShards, so the golden
  // 77-trial digest (tests/golden_sweep_test.cc) must be unreachable by the
  // knob. Same digest constant, same FNV-1a fold, knob set the whole time.
  ASSERT_EQ(setenv("ACCENT_SIM_SHARDS", "1", 1), 0);
  std::uint64_t digest = kFnv1aOffsetBasis;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    for (const TrialResult& result : RunTrials(StrategySweepConfigs(spec.name))) {
      digest = Fnv1a(digest, TrialResultToJson(result).Dump());
      digest = Fnv1a(digest, "\n");
    }
  }
  EXPECT_EQ(digest, 0x5798e77cf186ffd8ull)
      << "ACCENT_SIM_SHARDS leaked into the classic serial engine";
  ASSERT_EQ(unsetenv("ACCENT_SIM_SHARDS"), 0);
}

TEST(SweepThreads, EnvVarOverridesAndClamps) {
  ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(SweepThreadCount(), 3);
  // Non-positive and garbage values fall back to the hardware default.
  ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", "0", 1), 0);
  EXPECT_EQ(SweepThreadCount(), ThreadPool::HardwareThreads());
  ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", "-4", 1), 0);
  EXPECT_EQ(SweepThreadCount(), ThreadPool::HardwareThreads());
  ASSERT_EQ(setenv("ACCENT_SWEEP_THREADS", "lots", 1), 0);
  EXPECT_EQ(SweepThreadCount(), ThreadPool::HardwareThreads());
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
