// The fixed adversarial fuzz corpus (seeds 1..64) as individual ctest
// cases: every seeded scenario — random heterogeneous topology x workload
// x fault plan x strategy x optional re-migration — must satisfy all the
// standing oracles (content integrity, zero hangs, balanced backer
// references, 1-vs-2-shard fleet identity). A failing seed names itself:
// re-run it interactively with tools/migrate_sim --replay-seed=N.
#include <gtest/gtest.h>

#include "src/experiments/scenario_fuzz.h"
#include "tests/digest.h"

namespace accent {
namespace {

// FNV-1a digest of the serial JSON dump of seeds 1..8, recorded before the
// fuzzer's runner became the shared scenario runner: MakeScenario's seed
// streams and every verdict are pinned.
constexpr std::uint64_t kCorpusDigest = 0xe576cb5f905dc9d8ull;

class ScenarioFuzzCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioFuzzCorpus, SeedSatisfiesAllOracles) {
  const FuzzScenario scenario = MakeScenario(GetParam());
  const FuzzScenarioResult result = RunScenario(scenario);
  EXPECT_TRUE(result.ok()) << "seed " << GetParam() << " failed [" << result.failure
                           << "] scenario: " << scenario.Describe()
                           << "\nreplay with: tools/migrate_sim --replay-seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ScenarioFuzz, ScenarioFuzzCorpus, ::testing::Range<std::uint64_t>(1, 65));

// Scenario construction is a pure function of the seed: the corpus a CI run
// checks is the corpus --replay-seed reconstructs.
TEST(ScenarioFuzz, ScenarioIsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ull, 17ull, 345ull}) {
    const FuzzScenario a = MakeScenario(seed);
    const FuzzScenario b = MakeScenario(seed);
    EXPECT_EQ(a.Describe(), b.Describe());
    EXPECT_EQ(a.host_count, b.host_count);
    EXPECT_EQ(a.prefetch, b.prefetch);
    EXPECT_EQ(a.drop, b.drop);
  }
}

// Every scenario runs on private simulations, so the corpus result —
// including the emitted JSON — cannot depend on worker-thread count.
TEST(ScenarioFuzz, CorpusJsonIsThreadCountInvariant) {
  const Json sequential = FuzzCorpusToJson(RunFuzzCorpus(1, 8, /*threads=*/1));
  const Json parallel = FuzzCorpusToJson(RunFuzzCorpus(1, 8, /*threads=*/4));
  EXPECT_EQ(sequential.Dump(), parallel.Dump());
  EXPECT_EQ(Fnv1aDigest(sequential.Dump()), kCorpusDigest)
      << "fuzz corpus changed: new digest 0x" << std::hex << Fnv1aDigest(sequential.Dump());
}

// The generator must keep exercising the interesting corners: across a
// modest seed range we expect heterogeneous calibrations, diskless hosts,
// re-migrations, lossy plans and crashes all to appear.
TEST(ScenarioFuzz, GeneratorCoversTheAdversarialCorners) {
  int calibrated = 0;
  int diskless = 0;
  int remigrate = 0;
  int lossy = 0;
  int crash = 0;
  int partition = 0;
  int cached = 0;
  int small_cache = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FuzzScenario sc = MakeScenario(seed);
    cached += sc.content_cache ? 1 : 0;
    small_cache += (sc.content_cache && sc.content_cache_pages <= 64) ? 1 : 0;
    calibrated += AnyCalibrated(sc.calibrations) ? 1 : 0;
    for (const HostCalibration& cal : sc.calibrations) {
      if (cal.diskless) {
        ++diskless;
        break;
      }
    }
    remigrate += sc.remigrate ? 1 : 0;
    lossy += (sc.drop > 0.0 || sc.duplicate > 0.0 || sc.delay > 0.0) ? 1 : 0;
    crash += (sc.crash_dest || sc.crash_source) ? 1 : 0;
    partition += sc.partition_transfer ? 1 : 0;
  }
  EXPECT_GT(calibrated, 10);
  EXPECT_GT(diskless, 2);
  EXPECT_GT(remigrate, 5);
  EXPECT_GT(lossy, 20);
  EXPECT_GT(crash, 5);
  EXPECT_GT(partition, 3);
  // The content-cache draw must keep both halves of the space populated,
  // including capacities small enough to force eviction mid-migration.
  EXPECT_GT(cached, 20);
  EXPECT_LT(cached, 44);
  EXPECT_GT(small_cache, 2);
}

}  // namespace
}  // namespace accent
