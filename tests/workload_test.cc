// Workload construction tests, parameterized over all seven
// representatives: the staged processes must reproduce Tables 4-1 and 4-2
// byte-for-byte and obey every structural invariant the trials rely on.
#include <gtest/gtest.h>

#include "src/experiments/testbed.h"
#include "src/workloads/trace_gen.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

class WorkloadParamTest : public ::testing::TestWithParam<std::string> {
 protected:
  const WorkloadSpec& spec() const { return WorkloadByName(GetParam()); }
};

TEST_P(WorkloadParamTest, CompositionMatchesTable41) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(spec(), bed.host(0), 42);
  const AddressSpace& space = *instance.process->space();
  EXPECT_EQ(space.RealBytes(), spec().real_bytes);
  EXPECT_EQ(space.RealZeroBytes(), spec().zero_bytes);
  EXPECT_EQ(space.TotalValidatedBytes(), spec().total_bytes());
  EXPECT_EQ(space.ImagBytes(), 0u);
}

TEST_P(WorkloadParamTest, ResidentSetMatchesTable42) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(spec(), bed.host(0), 42);
  EXPECT_EQ(bed.host(0)->memory->ResidentCount(instance.process->space()->id()),
            spec().resident_pages());
  // Every resident page is a RealMem page.
  const std::set<PageIndex> real(instance.real_page_list.begin(),
                                 instance.real_page_list.end());
  for (PageIndex page : instance.resident_pages) {
    EXPECT_TRUE(real.count(page) != 0) << "resident page " << page << " is not RealMem";
  }
}

TEST_P(WorkloadParamTest, MapComplexityMatchesLayout) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(spec(), bed.host(0), 42);
  EXPECT_EQ(instance.process->space()->map_entries(),
            spec().real_regions + spec().zero_regions);
}

TEST_P(WorkloadParamTest, TraceTouchesExactlyThePlan) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(spec(), bed.host(0), 42);
  EXPECT_EQ(instance.planned_touches.size(), spec().touched_real_pages);
  const Trace& trace = *instance.process->trace();
  std::set<PageIndex> traced;
  const std::set<PageIndex> real(instance.real_page_list.begin(),
                                 instance.real_page_list.end());
  std::uint64_t zero_touches = 0;
  for (const TraceOp& op : trace) {
    if (op.kind != TraceOp::Kind::kTouch) {
      continue;
    }
    const PageIndex page = PageOf(op.addr);
    if (real.count(page) != 0) {
      traced.insert(page);
    } else {
      ++zero_touches;
      EXPECT_TRUE(op.write);  // zero-region touches are output writes
    }
  }
  EXPECT_EQ(traced, instance.planned_touches);
  EXPECT_EQ(zero_touches, spec().zero_touches);
}

TEST_P(WorkloadParamTest, OverlapBetweenResidentAndTouched) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(spec(), bed.host(0), 42);
  std::uint64_t overlap = 0;
  const std::set<PageIndex> resident(instance.resident_pages.begin(),
                                     instance.resident_pages.end());
  for (PageIndex page : instance.planned_touches) {
    overlap += resident.count(page);
  }
  EXPECT_EQ(overlap, spec().resident_touched_overlap);
}

TEST_P(WorkloadParamTest, ComputeBudgetHonoured) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(spec(), bed.host(0), 42);
  const SimDuration compute = TraceComputeTime(*instance.process->trace());
  // Slicing truncates: within 1% + a few slices of the budget.
  EXPECT_LE(compute, spec().compute + Ms(1));
  EXPECT_GE(ToSeconds(compute), ToSeconds(spec().compute) * 0.95);
}

TEST_P(WorkloadParamTest, DeterministicForSameSeed) {
  Testbed bed_a;
  Testbed bed_b;
  WorkloadInstance a = BuildWorkload(spec(), bed_a.host(0), 7);
  WorkloadInstance b = BuildWorkload(spec(), bed_b.host(0), 7);
  EXPECT_EQ(a.planned_touches, b.planned_touches);
  EXPECT_EQ(a.resident_pages, b.resident_pages);
  EXPECT_EQ(a.process->trace()->size(), b.process->trace()->size());
}

TEST_P(WorkloadParamTest, DifferentSeedsDifferInPlan) {
  if (spec().pattern == AccessPattern::kMinimal) {
    GTEST_SKIP() << "Minprog's working set is deterministic by design";
  }
  Testbed bed_a;
  Testbed bed_b;
  WorkloadInstance a = BuildWorkload(spec(), bed_a.host(0), 1);
  WorkloadInstance b = BuildWorkload(spec(), bed_b.host(0), 2);
  EXPECT_NE(a.planned_touches, b.planned_touches);
}

TEST_P(WorkloadParamTest, RealPagesCarryPatternData) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(spec(), bed.host(0), 42);
  const AddressSpace& space = *instance.process->space();
  // Spot-check several pages across the image.
  for (std::size_t i = 0; i < instance.real_page_list.size();
       i += std::max<std::size_t>(1, instance.real_page_list.size() / 16)) {
    const PageIndex page = instance.real_page_list[i];
    EXPECT_EQ(space.ReadPage(page), MakePatternPage(WorkloadPageSeed(42, page)))
        << "page " << page;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRepresentatives, WorkloadParamTest,
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

TEST(WorkloadRegistry, SevenRepresentatives) {
  EXPECT_EQ(RepresentativeWorkloads().size(), 7u);
}

TEST(WorkloadRegistry, SequentialScanIsAscending) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(WorkloadByName("PM-Start"), bed.host(0), 42);
  const Trace& trace = *instance.process->trace();
  const std::set<PageIndex> real(instance.real_page_list.begin(),
                                 instance.real_page_list.end());
  PageIndex last = 0;
  for (const TraceOp& op : trace) {
    if (op.kind != TraceOp::Kind::kTouch || real.count(PageOf(op.addr)) == 0) {
      continue;
    }
    EXPECT_GT(PageOf(op.addr), last) << "Pasmac scan must ascend";
    last = PageOf(op.addr);
  }
}

TEST(WorkloadRegistry, LispClustersAverageUnderTwoPages) {
  // The clustered generator produces ~1.7-page clusters so PF1 hit rate
  // lands near the paper's 40%.
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(WorkloadByName("Lisp-Del"), bed.host(0), 42);
  std::vector<PageIndex> touched(instance.planned_touches.begin(),
                                 instance.planned_touches.end());
  std::uint64_t clusters = 0;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    if (i == 0 || touched[i] != touched[i - 1] + 1) {
      ++clusters;
    }
  }
  const double mean = static_cast<double>(touched.size()) / static_cast<double>(clusters);
  EXPECT_GT(mean, 1.2);
  EXPECT_LT(mean, 2.6);
}

}  // namespace
}  // namespace accent
