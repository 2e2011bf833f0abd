// Failure injection: dead backing ports, addressing errors, dead
// destinations — the system must degrade loudly but gracefully, never hang.
// Every drain goes through the simulated-time watchdog (RunGuarded), so a
// regression that wedges the event loop fails fast with a pending-event
// dump instead of timing out the test binary.
#include <gtest/gtest.h>

#include "src/experiments/failure_sweep.h"
#include "src/experiments/testbed.h"
#include "src/vm/backer.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  Testbed bed;
};

TEST_F(FailureTest, BadMemReferenceInvokesDebugger) {
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  space->Validate(0, kPageSize);  // everything else is BadMem

  AccessOutcome outcome;
  bool done = false;
  bed.pager(0)->Access(space.get(), 100 * kPageSize, false, [&](const AccessOutcome& o) {
    outcome = o;
    done = true;
  });
  ASSERT_TRUE(bed.RunGuarded());
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.fault, FaultKind::kAddressError);
  EXPECT_EQ(bed.pager(0)->stats().address_errors, 1u);
}

TEST_F(FailureTest, ProcessStopsFaultedOnBadMem) {
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  space->Validate(0, kPageSize);
  auto proc = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), "delinquent",
                                        bed.host(0), std::move(space), 1);
  proc->SetTrace(TraceBuilder()
                     .Read(0)
                     .Read(100 * kPageSize)  // wild pointer
                     .Compute(Ms(1))
                     .Terminate()
                     .Build(),
                 0);
  bool fault_seen = false;
  proc->set_on_fault([&](Process*, const AccessOutcome& o) {
    fault_seen = true;
    EXPECT_EQ(o.fault, FaultKind::kAddressError);
  });
  proc->Start();
  ASSERT_TRUE(bed.RunGuarded());
  EXPECT_TRUE(fault_seen);
  EXPECT_TRUE(proc->faulted());
  EXPECT_FALSE(proc->done());
  EXPECT_EQ(proc->trace_pc(), 1u);  // stopped at the offending reference
}

TEST_F(FailureTest, DeadBackerFailsTheFault) {
  // Back an object, then destroy the backing port before the fault.
  SegmentBacker backer(bed.host(1)->id, &bed.sim(), &bed.costs(), &bed.fabric(),
                       &bed.segments(), CpuWork::kProcess, "doomed");
  backer.Start();
  Segment* obj = bed.segments().CreateReal(4 * kPageSize, "obj");
  obj->StorePage(0, MakePatternPage(1));
  const IouRef iou = backer.Back(obj);

  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  Segment* standin = bed.segments().CreateImaginary(4 * kPageSize, iou, "standin");
  space->MapImaginary(0, 4 * kPageSize, standin, 0);

  bed.fabric().DestroyPort(iou.backing_port);

  AccessOutcome outcome;
  bool done = false;
  bed.pager(0)->Access(space.get(), 0, false, [&](const AccessOutcome& o) {
    outcome = o;
    done = true;
  });
  ASSERT_TRUE(bed.RunGuarded());
  ASSERT_TRUE(done);  // never hangs
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.fault, FaultKind::kImaginary);
  EXPECT_EQ(bed.pager(0)->stats().failed_fetches, 1u);
  // The page remains owed; the address space is not corrupted.
  EXPECT_EQ(space->ClassOf(0), MemClass::kImag);
}

TEST_F(FailureTest, JoinedWaitersAllFailTogether) {
  SegmentBacker backer(bed.host(1)->id, &bed.sim(), &bed.costs(), &bed.fabric(),
                       &bed.segments(), CpuWork::kProcess, "doomed");
  backer.Start();
  Segment* obj = bed.segments().CreateReal(4 * kPageSize, "obj");
  const IouRef iou = backer.Back(obj);
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  Segment* standin = bed.segments().CreateImaginary(4 * kPageSize, iou, "standin");
  space->MapImaginary(0, 4 * kPageSize, standin, 0);
  bed.fabric().DestroyPort(iou.backing_port);

  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    bed.pager(0)->Access(space.get(), 0, false, [&](const AccessOutcome& o) {
      failures += o.failed ? 1 : 0;
    });
  }
  ASSERT_TRUE(bed.RunGuarded());
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(bed.pager(0)->stats().failed_fetches, 1u);  // one shared fetch
}

TEST_F(FailureTest, ProcessFaultsWhenBackerDiesMidRun) {
  // A migrated-style process whose owed memory's backer dies while running.
  SegmentBacker backer(bed.host(1)->id, &bed.sim(), &bed.costs(), &bed.fabric(),
                       &bed.segments(), CpuWork::kProcess, "doomed");
  backer.Start();
  Segment* obj = bed.segments().CreateReal(16 * kPageSize, "obj");
  for (PageIndex p = 0; p < 16; ++p) {
    obj->StorePage(p, MakePatternPage(p));
  }
  const IouRef iou = backer.Back(obj);

  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  Segment* standin = bed.segments().CreateImaginary(16 * kPageSize, iou, "standin");
  space->MapImaginary(0, 16 * kPageSize, standin, 0);
  auto proc = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), "victim",
                                        bed.host(0), std::move(space), 1);
  proc->SetTrace(TraceBuilder()
                     .Read(0)
                     .Compute(Sec(2.0))
                     .Read(8 * kPageSize)  // backer will be dead by now
                     .Terminate()
                     .Build(),
                 0);
  proc->Start();
  bed.sim().RunUntil(Sec(1.0));
  EXPECT_TRUE(proc->space()->HasPrivatePage(0));  // first fetch succeeded
  bed.fabric().DestroyPort(iou.backing_port);
  ASSERT_TRUE(bed.RunGuarded());
  EXPECT_TRUE(proc->faulted());
  // The fetched page survived; only the unfetched one is lost.
  EXPECT_EQ(proc->space()->ReadPage(0), MakePatternPage(0));
}

TEST_F(FailureTest, MessageToDeadPortReportsError) {
  struct Sink : Receiver {
    void HandleMessage(Message) override {}
  } sink;
  const PortId port = bed.fabric().AllocatePort(bed.host(0)->id, &sink, "victim");
  bed.fabric().DestroyPort(port);
  Message msg;
  msg.dest = port;
  const Result<void> sent = bed.fabric().Send(bed.host(0)->id, std::move(msg));
  ASSERT_FALSE(sent.ok());
  EXPECT_NE(sent.error().message.find("dead port"), std::string::npos);
}

TEST_F(FailureTest, PortDyingInFlightDropsMessageQuietly) {
  struct Sink : Receiver {
    int received = 0;
    void HandleMessage(Message) override { ++received; }
  } sink;
  const PortId port = bed.fabric().AllocatePort(bed.host(1)->id, &sink, "victim");
  Message msg;
  msg.dest = port;
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  bed.sim().RunUntil(Ms(2));  // message is crossing
  bed.fabric().DestroyPort(port);
  ASSERT_TRUE(bed.RunGuarded());  // must drain without crashing
  EXPECT_EQ(sink.received, 0);
}

TEST_F(FailureTest, DeathNoticeToDeadBackerIsHarmless) {
  SegmentBacker backer(bed.host(1)->id, &bed.sim(), &bed.costs(), &bed.fabric(),
                       &bed.segments(), CpuWork::kProcess, "gone");
  backer.Start();
  Segment* obj = bed.segments().CreateReal(kPageSize, "obj");
  const IouRef iou = backer.Back(obj);
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  Segment* standin = bed.segments().CreateImaginary(kPageSize, iou, "standin");
  space->MapImaginary(0, kPageSize, standin, 0);
  bed.fabric().DestroyPort(iou.backing_port);
  bed.pager(0)->NotifySpaceDeath(space.get());  // logs, doesn't crash
  EXPECT_TRUE(bed.RunGuarded());
}

TEST(MigrationRollback, DestinationCrashMidInsertRollsBackSource) {
  // The destination dies *after* both context messages arrived but before
  // the kMigrateComplete handshake could return: the source must conclude
  // the peer is gone, abort, and restore the process runnable at home from
  // its retained context copies. Crash placement comes from a lossless
  // baseline of the same trial.
  const MechRun baseline = RunFailureBaseline(
      FailureSpec({}, "Minprog", TransferStrategy::kPureIou, 42), ReferenceChecksum("Minprog", 42));
  ASSERT_GT(baseline.hop1.insert_time.count(), 0);
  const SimTime mid_insert = baseline.hop1.resumed - baseline.hop1.insert_time / 2;

  TestbedConfig config;
  config.costs.migration_abort_timeout = Sec(30.0);  // keep the test brisk
  config.fault_plan.crashes.push_back(CrashWindow{HostId(2), mid_insert, kFaultForever});
  Testbed bed(config);

  WorkloadInstance instance = BuildWorkload(WorkloadByName("Minprog"), bed.host(0), 42);
  Process* proc = instance.process.get();
  bed.manager(0)->RegisterLocal(proc);

  Process* local = nullptr;
  bed.manager(0)->set_on_insert([&local](Process* inserted) { local = inserted; });

  bool done = false;
  MigrationRecord record;
  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), TransferStrategy::kPureIou,
                          [&](const MigrationRecord& r) {
                            record = r;
                            done = true;
                          });
  ASSERT_TRUE(bed.RunGuarded());
  ASSERT_TRUE(done);
  EXPECT_TRUE(record.aborted);
  EXPECT_TRUE(record.rolled_back);
  EXPECT_GT(record.rollback_insert.count(), 0);

  // The rolled-back incarnation is runnable at the source and finishes its
  // trace there; the excised husk stays excised.
  ASSERT_NE(local, nullptr);
  EXPECT_TRUE(local->done()) << "rolled-back process never ran at the source";
  EXPECT_EQ(local->env()->id, bed.host(0)->id);
}

}  // namespace
}  // namespace accent
