// Durable checkpoint/restart (docs/INTERNALS.md §16): every outbound
// migration deposits a versioned image at the cluster's checkpoint store,
// and a process whose backers died with a crashed origin is re-incarnated
// from that image instead of stopping with a terminal fault.
#include <gtest/gtest.h>

#include "src/experiments/failure_sweep.h"
#include "src/experiments/testbed.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// A long-running job whose trace cycles over `image_pages` so it survives
// several migrations (one compute slice per second of `compute`).
std::unique_ptr<Process> MakeJob(Testbed& bed, const std::string& name, SimDuration compute,
                                 PageIndex image_pages) {
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  Segment* image = bed.segments().CreateReal(image_pages * kPageSize, "img");
  for (PageIndex p = 0; p < image_pages; ++p) {
    image->StorePage(p, MakePatternPage(p + 1));
  }
  space->MapReal(0, image_pages * kPageSize, image, 0, false);
  auto proc = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), name, bed.host(0),
                                        std::move(space), 1);
  TraceBuilder trace;
  const auto slices = std::max<std::int64_t>(1, compute / Sec(1.0));
  for (std::int64_t i = 0; i < slices; ++i) {
    trace.Compute(compute / slices);
    trace.Read(PageBase(static_cast<PageIndex>(i) % image_pages));
  }
  trace.Terminate();
  proc->SetTrace(trace.Build(), 0);
  return proc;
}

TEST(CheckpointTest, MigrationCheckpointsToTheStore) {
  TestbedConfig config;
  config.checkpoint_store = true;
  Testbed bed(config);

  WorkloadInstance instance = BuildWorkload(WorkloadByName("Minprog"), bed.host(0), 42);
  Process* proc = instance.process.get();
  bed.manager(0)->RegisterLocal(proc);

  bool done = false;
  MigrationRecord record;
  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), TransferStrategy::kPureIou,
                          [&](const MigrationRecord& r) {
                            record = r;
                            done = true;
                          });
  ASSERT_TRUE(bed.RunGuarded());
  ASSERT_TRUE(done);
  EXPECT_FALSE(record.aborted);
  EXPECT_TRUE(record.checkpointed);
  EXPECT_GT(record.checkpoint_bytes, 0u);
  EXPECT_EQ(bed.manager(0)->checkpoints_sent(), 1u);

  FileServer* store = bed.checkpoint_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->checkpoints_stored(), 1u);
  EXPECT_EQ(store->checkpoint_versions(proc->id()), 1u);
  EXPECT_GT(store->checkpoint_pages_stored(), 0u);
  EXPECT_TRUE(bed.manager(1)->adopted().at(0)->done());
}

TEST(CheckpointTest, StoreOffLeavesManagersUnwired) {
  Testbed bed;  // default config: no store
  EXPECT_EQ(bed.checkpoint_store(), nullptr);
  EXPECT_FALSE(bed.manager(0)->checkpoint_store().valid());
  EXPECT_EQ(bed.manager(0)->checkpoints_sent(), 0u);
}

TEST(CheckpointTest, ReMigrationAppendsAVersion) {
  TestbedConfig config;
  config.checkpoint_store = true;
  Testbed bed(config);

  auto proc = MakeJob(bed, "wanderer", Sec(30.0), 16);
  bed.manager(0)->RegisterLocal(proc.get());
  proc->Start();

  Process* inserted = nullptr;
  bed.manager(1)->set_on_insert([&](Process* p) { inserted = p; });
  bool first_done = false;
  bed.manager(0)->Migrate(proc.get(), bed.manager(1)->port(), TransferStrategy::kResidentSet,
                          [&](const MigrationRecord&) { first_done = true; });
  bed.sim().RunUntil(Sec(15.0));
  ASSERT_TRUE(first_done);
  ASSERT_NE(inserted, nullptr);
  ASSERT_FALSE(inserted->done());

  bool second_done = false;
  bed.manager(1)->Migrate(inserted, bed.manager(0)->port(), TransferStrategy::kResidentSet,
                          [&](const MigrationRecord&) { second_done = true; });
  ASSERT_TRUE(bed.RunGuarded());
  ASSERT_TRUE(second_done);

  // Same process, two departures: the store kept both versions and serves
  // the latest on restore.
  EXPECT_EQ(bed.checkpoint_store()->checkpoints_stored(), 2u);
  EXPECT_EQ(bed.checkpoint_store()->checkpoint_versions(proc->id()), 2u);
}

TEST(CheckpointTest, DisklessSourceCheckpointsToRemoteStore) {
  // A diskless host cannot anchor a FileServer; the testbed must place the
  // store on the first host that owns a spindle and the diskless source
  // checkpoints across the wire instead of CHECK-failing.
  TestbedConfig config;
  config.checkpoint_store = true;  // checkpoint_host = 0: auto-pick
  HostCalibration diskless;
  diskless.diskless = true;
  config.calibrations = {diskless, HostCalibration{}};
  Testbed bed(config);

  ASSERT_NE(bed.checkpoint_store(), nullptr);
  EXPECT_EQ(bed.fabric().HomeOf(bed.checkpoint_store()->port()), bed.host(1)->id);

  WorkloadInstance instance = BuildWorkload(WorkloadByName("Minprog"), bed.host(0), 42);
  Process* proc = instance.process.get();
  bed.manager(0)->RegisterLocal(proc);
  bool done = false;
  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), TransferStrategy::kPureCopy,
                          [&](const MigrationRecord&) { done = true; });
  ASSERT_TRUE(bed.RunGuarded());
  ASSERT_TRUE(done);
  EXPECT_EQ(bed.checkpoint_store()->checkpoints_stored(), 1u);
  EXPECT_TRUE(bed.manager(1)->adopted().at(0)->done());
}

TEST(CheckpointTest, RestoreFlipsSourceCrashTerminalToCompleted) {
  const FailureScenario* source_crash = nullptr;
  for (const FailureScenario& scenario : FailureScenarios()) {
    if (scenario.name == "source_crash") {
      source_crash = &scenario;
    }
  }
  ASSERT_NE(source_crash, nullptr);
  const std::uint64_t reference = ReferenceChecksum("Minprog", 42);

  // Store off: the classic matrix's terminal residual-dependency cell (the
  // crashed origin still owes copy-on-reference pages).
  const FuzzScenario off_spec =
      FailureSpec(source_crash->faults, "Minprog", TransferStrategy::kPureIou, 42);
  const MechRun off_base = RunFailureBaseline(off_spec, reference);
  const MechTrial off = RunFailureTrial(off_spec, source_crash->name, off_base, reference);
  EXPECT_EQ(off.verdict.outcome, FailureOutcome::kTerminalFault);
  EXPECT_FALSE(off.verdict.restored);

  // Store on: the dead-backer fault triggers a restore from the checkpoint
  // image and the process finishes with intact contents.
  const FuzzScenario on_spec = FailureSpec(source_crash->faults, "Minprog",
                                           TransferStrategy::kPureIou, 42,
                                           /*checkpoint_store=*/true);
  const MechRun on_base = RunFailureBaseline(on_spec, reference);
  const MechTrial on = RunFailureTrial(on_spec, source_crash->name, on_base, reference);
  EXPECT_EQ(on.verdict.outcome, FailureOutcome::kCompleted);
  EXPECT_TRUE(on.verdict.restored);
  EXPECT_TRUE(on.verdict.integrity_ok);
}

TEST(CheckpointJsonTest, TerminalBreakdownCoversEveryCell) {
  // One group: its baseline and a trial per column, the last (source_crash)
  // terminal.
  FailureMatrix matrix;
  matrix.baselines.emplace_back();
  for (const FailureScenario& column : FailureScenarios()) {
    MechTrial& trial = matrix.trials.emplace_back();
    trial.spec = FailureSpec(column.faults, "Minprog", TransferStrategy::kPureIou, 42);
  }
  ASSERT_EQ(FailureScenarios().back().name, "source_crash");
  matrix.trials.back().verdict.outcome = FailureOutcome::kTerminalFault;

  const Json report = FailureMatrixToJson(matrix);
  EXPECT_EQ(report.Get("schema_version").AsInt64(), 3);
  const Json& breakdown = report.Get("terminal_breakdown");
  EXPECT_EQ(breakdown.Get("pure-IOU").Get("source_crash").AsInt64(), 1);
  // Every strategy x scenario cell is present, zeros included, so diffs
  // across runs line up key for key.
  for (const char* strategy : {"pure-copy", "pure-IOU", "resident-set", "pre-copy"}) {
    for (const FailureScenario& scenario : FailureScenarios()) {
      ASSERT_NO_FATAL_FAILURE(breakdown.Get(strategy).Get(scenario.name).AsInt64())
          << strategy << "/" << scenario.name;
    }
  }
  EXPECT_EQ(breakdown.Get("pure-copy").Get("drop2").AsInt64(), 0);
}

}  // namespace
}  // namespace accent
