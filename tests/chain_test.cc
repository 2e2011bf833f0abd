// Multi-hop re-migration: the A -> B -> C chain and its collapse.
#include <gtest/gtest.h>

#include "src/base/page_data.h"
#include "src/experiments/chain.h"
#include "src/experiments/testbed.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// Reference incarnation: one lossless single-hop pure-copy migration run to
// completion at the destination (same page representation as the chain's
// final incarnation at C).
struct Reference {
  Testbed bed;
  Process* remote = nullptr;
  std::set<PageIndex> planned;
};

void RunReference(Reference* ref, const std::string& workload, std::uint64_t seed) {
  WorkloadInstance instance = BuildWorkload(WorkloadByName(workload), ref->bed.host(0), seed);
  ref->planned = instance.planned_touches;
  Process* proc = instance.process.get();
  ref->bed.manager(0)->RegisterLocal(proc);
  ref->bed.manager(1)->set_on_insert([ref](Process* inserted) { ref->remote = inserted; });
  bool done = false;
  ref->bed.manager(0)->Migrate(proc, ref->bed.manager(1)->port(), TransferStrategy::kPureCopy,
                               [&done](const MigrationRecord&) { done = true; });
  ref->bed.sim().Run();
  ASSERT_TRUE(done);
  ASSERT_NE(ref->remote, nullptr);
  ASSERT_TRUE(ref->remote->done());
}

// One A -> B -> C chain run, instrumented for page-level comparison.
struct ChainRun {
  Testbed bed{[] {
    TestbedConfig config;
    config.host_count = 3;
    return config;
  }()};
  Process* at_c = nullptr;
  std::set<PageIndex> planned;
  bool hop1_done = false;
  bool hop2_done = false;
  bool collapse_done = false;
  ChainCollapseStats collapse;
};

void RunChain(ChainRun* run, const std::string& workload, TransferStrategy strategy,
              std::uint32_t prefetch, std::uint64_t seed) {
  Testbed& bed = run->bed;
  bed.SetPrefetch(prefetch);
  WorkloadInstance instance = BuildWorkload(WorkloadByName(workload), bed.host(0), seed);
  run->planned = instance.planned_touches;
  Process* proc = instance.process.get();
  bed.manager(0)->RegisterLocal(proc);

  bed.manager(2)->set_on_insert([run](Process* inserted) { run->at_c = inserted; });
  bed.manager(1)->set_on_collapse([run](const ChainCollapseStats& stats) {
    run->collapse_done = true;
    run->collapse = stats;
  });
  bed.manager(1)->set_on_insert([run, &bed, strategy](Process* at_b) {
    const std::size_t pc = at_b->trace_pc();
    const std::size_t size = at_b->trace()->size();
    std::size_t target = pc + (size - pc) / 2;
    if (target <= pc) {
      target = pc + 1;
    }
    at_b->SuspendAt(target, [run, &bed, strategy, at_b]() {
      bed.manager(1)->Migrate(at_b, bed.manager(2)->port(), strategy,
                              [run](const MigrationRecord&) { run->hop2_done = true; });
    });
  });

  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), strategy,
                          [run](const MigrationRecord&) { run->hop1_done = true; });
  ASSERT_TRUE(bed.RunGuarded());
  ASSERT_TRUE(run->hop1_done);
  ASSERT_TRUE(run->hop2_done);
  ASSERT_NE(run->at_c, nullptr);
  ASSERT_TRUE(run->at_c->done());
}

// The contents a fault would observe for `page`: the private copy when
// materialised, otherwise (a page still owed to the backing chain) the
// backer object's stored page, resolved through the segment table.
PageRef ObservablePage(const AddressSpace& space, const SegmentTable& segments,
                       PageIndex page) {
  if (space.HasPrivatePage(page)) {
    return space.ReadPage(page);
  }
  if (space.ClassOf(PageBase(page)) == MemClass::kImag) {
    const AddressSpace::ImagTarget target = space.ImagTargetOf(PageBase(page));
    Segment* backer = segments.Find(target.iou.segment);
    return backer != nullptr ? backer->ReadPage(PageOf(target.backer_offset)) : PageRef{};
  }
  return space.ReadPage(page);
}

class ChainStrategyTest : public ::testing::TestWithParam<TransferStrategy> {};

// Every planned page at C matches the single-hop reference incarnation,
// byte for byte — the chain (and its collapse) may not corrupt anything.
// Pages the process touched only at B stay owed to the backing chain; after
// the collapse they must resolve through A (never the evacuated B), with
// the merged contents intact.
TEST_P(ChainStrategyTest, PreservesEveryPlannedPage) {
  Reference ref;
  ASSERT_NO_FATAL_FAILURE(RunReference(&ref, "Minprog", 42));

  ChainRun run;
  ASSERT_NO_FATAL_FAILURE(RunChain(&run, "Minprog", GetParam(), 0, 42));

  const PortId b_backing = run.bed.netmsg(1)->backing_port();
  for (PageIndex page : ref.planned) {
    const AddressSpace& space = *run.at_c->space();
    if (!space.HasPrivatePage(page) && space.ClassOf(PageBase(page)) == MemClass::kImag) {
      // Residual routing: no planned page may still be owed to B.
      EXPECT_NE(space.ImagTargetOf(PageBase(page)).iou.backing_port.value, b_backing.value)
          << "page " << page << " still owed to the evacuated intermediary";
    }
    EXPECT_EQ(PageIntegrityChecksum(ObservablePage(space, run.bed.segments(), page)),
              PageIntegrityChecksum(ObservablePage(*ref.remote->space(), ref.bed.segments(), page)))
        << "page " << page << " content mismatch";
  }
}

// Copy-on-reference chains collapse; after the collapse the intermediary
// owns no objects (only forwarding stubs) and serves no further requests.
TEST_P(ChainStrategyTest, IntermediaryIsEvacuatedAfterCollapse) {
  const TransferStrategy strategy = GetParam();
  ChainRun run;
  ASSERT_NO_FATAL_FAILURE(RunChain(&run, "Minprog", strategy, 0, 42));

  if (strategy == TransferStrategy::kPureCopy) {
    EXPECT_FALSE(run.collapse_done);  // no IOUs, nothing to collapse
    return;
  }
  EXPECT_TRUE(run.collapse_done);
  EXPECT_EQ(run.collapse.rebinds_acked, run.collapse.objects_handed_off);
  EXPECT_EQ(run.bed.manager(1)->chains_collapsed(), 1u);

  SegmentBacker& b = run.bed.netmsg(1)->backer();
  EXPECT_EQ(b.object_count(), 0u);
  if (strategy == TransferStrategy::kPureIou) {
    // Pure-IOU leaves B holding everything the process touched there, so the
    // collapse must genuinely move objects and leave forwarding stubs.
    EXPECT_GT(run.collapse.objects_handed_off, 0u);
    EXPECT_GT(run.collapse.segments_rebound, 0u);
    EXPECT_GT(b.stub_count(), 0u);
    EXPECT_GT(b.handoff_pages_sent(), 0u);
  } else {
    // Resident-set ships B's entire resident set physically on hop 2 and the
    // remainder was still owed to A, so B never became a backer: the collapse
    // is a (correct) no-op evacuation.
    EXPECT_EQ(b.stub_count(), run.collapse.objects_handed_off);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ChainStrategyTest,
                         ::testing::Values(TransferStrategy::kPureCopy,
                                           TransferStrategy::kPureIou,
                                           TransferStrategy::kResidentSet),
                         [](const ::testing::TestParamInfo<TransferStrategy>& info) {
                           switch (info.param) {
                             case TransferStrategy::kPureCopy:
                               return "PureCopy";
                             case TransferStrategy::kPureIou:
                               return "PureIou";
                             case TransferStrategy::kResidentSet:
                               return "ResidentSet";
                             case TransferStrategy::kPreCopy:
                               return "PreCopy";
                           }
                           return "Unknown";
                         });

// The chain grid's pure-IOU, prefetch-0 Minprog cell.
FuzzScenario PureIouCell() {
  const FuzzScenario spec = ChainSweepSpecs("Minprog", 42)[1];
  EXPECT_EQ(spec.strategy, TransferStrategy::kPureIou);
  EXPECT_EQ(spec.prefetch, 0u);
  return spec;
}

// The packaged grid agrees: one cell of the grid end to end.
TEST(ChainTrial, PureIouTrialMeetsEveryGate) {
  const MechTrial trial = RunMechTrials({PureIouCell()}, 1).front();
  const MechRun& run = trial.run;
  EXPECT_TRUE(run.drained);
  EXPECT_TRUE(run.hop1_done);
  EXPECT_TRUE(run.hop2_done);
  EXPECT_TRUE(run.finished && run.finish_host == trial.spec.redest);  // finished at C
  EXPECT_TRUE(trial.verdict.integrity_ok);
  EXPECT_TRUE(run.collapse_done);
  EXPECT_EQ(run.dest_requests_after_collapse, 0u);
  EXPECT_EQ(run.dest_forwards_after_collapse, 0u);
  EXPECT_EQ(run.dest_objects, 0u);
  EXPECT_GT(run.dest_stubs, 0u);
  EXPECT_GT(run.redest_imag_faults, 0u);
}

// B dies for good right after its chain collapsed; the process on C keeps
// running to completion — its residual dependency moved to A.
TEST(ChainCrash, IntermediaryDeathAfterCollapseIsSurvivable) {
  const MechTrial crashed = RunChainCrashTrials({PureIouCell()}, 1).front();
  // The rerun matches its baseline up to the crash, so it collapsed at the
  // baseline's instant, 1 ms before B died.
  EXPECT_TRUE(crashed.run.collapse_done);
  EXPECT_EQ(crashed.spec.crash_dest_at, crashed.run.collapse.collapsed_at + Ms(1));
  EXPECT_TRUE(ChainSweepToJson({}, {crashed}).Get("b_crash_survived").AsBool());
  EXPECT_TRUE(crashed.run.finished && crashed.run.finish_host == crashed.spec.redest);
  EXPECT_TRUE(crashed.verdict.integrity_ok);
}

// The crash cell is nothing but a spec: a chain cell whose crash_dest_at is
// the parked baseline's collapse + 1 ms. PlantFaults places it, Describe()
// prints it, and the process survives at C with intact contents.
TEST(ChainCrash, CrashCellIsASpec) {
  FuzzScenario spec = PureIouCell();
  spec.crash_dest_at = kParkedCrash;
  const MechRun baseline = RunMech(spec, PlantFaults(spec, MechRun{}), spec.seed);
  ASSERT_TRUE(baseline.collapse_done);

  spec.crash_dest_at = baseline.collapse.collapsed_at + Ms(1);
  const FaultPlan plan = PlantFaults(spec, baseline);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].host, HostId(2));  // B, host index 1
  EXPECT_EQ(plan.crashes[0].start, spec.crash_dest_at);
  EXPECT_EQ(plan.crashes[0].end, kFaultForever);
  const std::string crash = " crash=dest@" + std::to_string(spec.crash_dest_at.count()) + "us";
  EXPECT_NE(spec.Describe().find(crash), std::string::npos) << spec.Describe();

  const MechRun run = RunMech(spec, plan, spec.seed);
  const MechVerdict verdict = Classify(run, ReferenceChecksum(spec.workload, spec.seed));
  EXPECT_EQ(verdict.outcome, FailureOutcome::kCompleted);
  EXPECT_EQ(run.finish_host, spec.redest);
  EXPECT_TRUE(verdict.integrity_ok);
}

}  // namespace
}  // namespace accent
