// Golden-digest regression gate over the paper's full 77-trial sweep.
//
// Hashes the canonical JSON serialisation of every trial result in the
// 7-workload x 11-config grid into one FNV-1a digest and asserts it matches
// the value recorded before the zero-copy data-plane refactor. Any change to
// simulated timings, byte traffic, checksums, series buckets or pager stats
// — however small — moves the digest, so a perf refactor that accidentally
// perturbs results fails loudly here rather than silently shifting tables
// in docs/RESULTS.md.
//
// The digest is over TrialResultToJson(...).Dump(), the canonical per-trial
// row (src/experiments/sweep_cache.h).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiments/sweep.h"
#include "src/experiments/sweep_cache.h"
#include "src/workloads/workload.h"
#include "tests/digest.h"

namespace accent {
namespace {

// Captured from the seed tree (pre-refactor) by running this very test with
// the expectation left blank and recording the reported digest.
constexpr std::uint64_t kGoldenSweepDigest = 0x5798e77cf186ffd8ull;

TEST(GoldenSweep, FullGridDigestMatchesPreRefactorValue) {
  std::uint64_t digest = kFnv1aOffsetBasis;
  std::size_t trials = 0;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    const std::vector<TrialConfig> configs = StrategySweepConfigs(spec.name);
    const std::vector<TrialResult> results = RunTrials(configs);
    ASSERT_EQ(results.size(), configs.size()) << spec.name;
    for (const TrialResult& result : results) {
      digest = Fnv1a(digest, TrialResultToJson(result).Dump());
      digest = Fnv1a(digest, "\n");
      ++trials;
    }
  }
  EXPECT_EQ(trials, 77u);
  EXPECT_EQ(digest, kGoldenSweepDigest)
      << "sweep results changed: new digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace accent
