// Parameterized prefetch sweep across every representative: the structural
// invariants behind Figures 4-1/4-3/4-4's prefetch columns.
#include <gtest/gtest.h>

#include "src/experiments/trial.h"

namespace accent {
namespace {

class PrefetchSweepTest : public ::testing::TestWithParam<const char*> {
 protected:
  TrialResult Run(std::uint32_t prefetch) const {
    TrialConfig config;
    config.workload = GetParam();
    config.strategy = TransferStrategy::kPureIou;
    config.prefetch = prefetch;
    return RunTrial(config);
  }
};

TEST_P(PrefetchSweepTest, FaultCountFallsMonotonicallyWithPrefetch) {
  std::uint64_t last_faults = ~0ull;
  for (std::uint32_t prefetch : kPaperPrefetchValues) {
    const TrialResult trial = Run(prefetch);
    // Prefetch can only merge faults, never create them.
    EXPECT_LE(trial.dest_pager.imag_faults, last_faults)
        << GetParam() << " PF" << prefetch;
    last_faults = trial.dest_pager.imag_faults;
  }
}

TEST_P(PrefetchSweepTest, FetchedPagesCoverTouchesAndNeverExceedReal) {
  for (std::uint32_t prefetch : kPaperPrefetchValues) {
    const TrialResult trial = Run(prefetch);
    EXPECT_GE(trial.dest_pager.imag_pages_fetched, trial.spec.touched_real_pages)
        << GetParam() << " PF" << prefetch;
    EXPECT_LE(trial.dest_pager.imag_pages_fetched * kPageSize, trial.spec.real_bytes)
        << GetParam() << " PF" << prefetch;
    // Fetch = faulted pages + prefetched pages.
    EXPECT_EQ(trial.dest_pager.imag_pages_fetched,
              trial.dest_pager.imag_faults + trial.dest_pager.prefetched_pages);
  }
}

TEST_P(PrefetchSweepTest, FaultBytesGrowWithPrefetchDeadWeight) {
  // Total fault-channel bytes are minimal at PF0 (only touched pages move).
  const TrialResult base = Run(0);
  const TrialResult heavy = Run(15);
  EXPECT_GE(heavy.bytes_fault + 2 * kPageSize, base.bytes_fault)
      << GetParam();  // PF15 never moves fewer bytes (small slack for protocol)
  // At PF0, fault bytes are bounded by touched pages + per-fault overhead.
  const ByteCount per_fault_cap = kPageSize + 256;
  EXPECT_LE(base.bytes_fault, base.spec.touched_real_pages * per_fault_cap);
}

TEST_P(PrefetchSweepTest, RemoteExecutionNeverWorseWithSinglePagePrefetch) {
  // §4.4.2: "one page should be prefetched regardless of the transfer
  // strategy chosen" — PF1 must not lose to PF0 end-to-end.
  const TrialResult pf0 = Run(0);
  const TrialResult pf1 = Run(1);
  EXPECT_LE(ToSeconds(pf1.TransferPlusExec()), ToSeconds(pf0.TransferPlusExec()) * 1.001)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllRepresentatives, PrefetchSweepTest,
                         ::testing::Values("Minprog", "Lisp-T", "Lisp-Del", "PM-Start",
                                           "PM-Mid", "PM-End", "Chess"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace accent
