// Contract enforcement: the ACCENT_EXPECTS/ENSURES discipline must fail
// loudly on misuse. Death tests document the API's preconditions.
#include <gtest/gtest.h>

#include "src/base/interval_map.h"
#include "src/base/rng.h"
#include "src/experiments/testbed.h"
#include "src/proc/trace.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, IntervalMapRejectsEmptyRange) {
  IntervalMap<int> map;
  EXPECT_DEATH(map.Assign(10, 10, 1), "ACCENT_CHECK");
  EXPECT_DEATH(map.Erase(10, 5), "ACCENT_CHECK");
}

TEST(ContractDeathTest, RngRejectsZeroBound) {
  Rng rng(1);
  EXPECT_DEATH(rng.NextBelow(0), "ACCENT_CHECK");
}

TEST(ContractDeathTest, SimulatorRejectsSchedulingIntoThePast) {
  Simulator sim;
  sim.ScheduleAt(Ms(10), [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(Ms(5), [] {}), "scheduling into the past");
}

TEST(ContractDeathTest, AddressSpaceRejectsUnalignedRanges) {
  AddressSpace space(SpaceId(1), HostId(1));
  EXPECT_DEATH(space.Validate(0, 100), "not page aligned");
}

TEST(ContractDeathTest, AddressSpaceRejectsDoubleValidation) {
  AddressSpace space(SpaceId(1), HostId(1));
  space.Validate(0, kPageSize);
  EXPECT_DEATH(space.Validate(0, kPageSize), "existing mapping");
}

TEST(ContractDeathTest, AddressSpaceRejectsWriteToNonPrivatePage) {
  AddressSpace space(SpaceId(1), HostId(1));
  space.Validate(0, kPageSize);
  EXPECT_DEATH(space.WriteByte(0, 1), "non-private page");
}

TEST(ContractDeathTest, AddressSpaceRejectsReadingOwedMemory) {
  Testbed bed;
  AddressSpace space(SpaceId(bed.sim().AllocateId()), bed.host(0)->id);
  Segment* standin = bed.segments().CreateImaginary(
      kPageSize, IouRef{PortId(1), SegmentId(1), 0}, "s");
  space.MapImaginary(0, kPageSize, standin, 0);
  EXPECT_DEATH(space.ReadPage(0), "unfetched imaginary");
}

TEST(ContractDeathTest, TraceMustEndWithTerminate) {
  TraceBuilder builder;
  builder.Compute(Ms(1));
  EXPECT_DEATH(builder.Build(), "must end with Terminate");
}

TEST(ContractDeathTest, BuildWorkloadRejectsAnImageOfAnotherStaging) {
  Testbed bed;
  const WorkloadSpec& minprog = WorkloadByName("Minprog");
  const WorkloadImage other_seed = BuildWorkloadImage(minprog, 43);
  const WorkloadImage other_workload = BuildWorkloadImage(WorkloadByName("Chess"), 42);
  EXPECT_DEATH(BuildWorkload(minprog, bed.host(0), 42, &other_seed),
               "from the image of Minprog seed 43");
  EXPECT_DEATH(BuildWorkload(minprog, bed.host(0), 42, &other_workload),
               "from the image of Chess seed 42");
}

// Live pre-copy keeps the process running at home, so it is still
// runnable there; a second Migrate would replace the first attempt, whose
// `done` would then never fire.
TEST(ContractDeathTest, MigrateRejectsAProcessAlreadyMigrating) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(WorkloadByName("Lisp-Del"), bed.host(0), 42);
  Process* proc = instance.process.get();
  MigrationManager* manager = bed.manager(0);
  manager->RegisterLocal(proc);
  proc->Start();
  manager->Migrate(proc, bed.manager(1)->port(), TransferStrategy::kPreCopy,
                   [](const MigrationRecord&) {});
  bed.sim().RunUntil(Ms(100));
  ASSERT_EQ(manager->RunnableLocalProcesses(), std::vector<Process*>{proc});
  EXPECT_DEATH(manager->Migrate(proc, bed.manager(1)->port(), TransferStrategy::kPureIou,
                                [](const MigrationRecord&) {}),
               "already has an outbound migration");
}

TEST(ContractDeathTest, ProcessCannotBeExcisedWhileRunning) {
  Testbed bed;
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  space->Validate(0, kPageSize);
  auto proc = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), "p", bed.host(0),
                                        std::move(space), 1);
  proc->SetTrace(TraceBuilder().Compute(Sec(10.0)).Terminate().Build(), 0);
  proc->Start();
  bed.sim().RunUntil(Ms(100));  // mid-compute
  EXPECT_DEATH(proc->TakeSpace(), "non-quiescent");
}

TEST(ContractDeathTest, MapRealRejectsOverhang) {
  Testbed bed;
  AddressSpace space(SpaceId(bed.sim().AllocateId()), bed.host(0)->id);
  Segment* seg = bed.segments().CreateReal(2 * kPageSize, "s");
  EXPECT_DEATH(space.MapReal(0, 4 * kPageSize, seg, 0, false), "ACCENT_CHECK");
}

TEST(ContractDeathTest, WorkloadRegistryRejectsUnknownName) {
  EXPECT_DEATH(WorkloadByName("NoSuchProgram"), "unknown workload");
}

TEST(ContractDeathTest, SuspendAtRejectsPassedWatchpoint) {
  Testbed bed;
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  space->Validate(0, kPageSize);
  auto proc = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), "p", bed.host(0),
                                        std::move(space), 1);
  proc->SetTrace(
      TraceBuilder().Compute(Ms(1)).Compute(Ms(1)).Compute(Ms(1)).Terminate().Build(), 0);
  proc->Start();
  bed.sim().Run();
  EXPECT_DEATH(proc->SuspendAt(1, [] {}), "ACCENT_CHECK");
}

}  // namespace
}  // namespace accent
