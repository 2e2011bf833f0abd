// Pre-copy migration baseline tests (the V-system comparison of section 5):
// iterative shipment while running, acknowledged rounds, tiny downtime,
// byte overhead, and full data integrity including mid-round writes.
#include <gtest/gtest.h>

#include "src/experiments/precopy.h"
#include "src/experiments/testbed.h"
#include "tests/digest.h"

namespace accent {
namespace {

// FNV-1a digest of the serial pre-copy report dump at seed 42: its gates,
// its Pareto rows and one shared MechRowToJson row per cell plus the grid's
// own keys (src/experiments/scenario.h).
constexpr std::uint64_t kPreCopySweepDigest = 0x37b505e0ad1ee1faull;

class PreCopyTest : public ::testing::Test {
 protected:
  // A process that keeps writing while the migration runs.
  std::unique_ptr<Process> BuildWriter(Testbed* bed, int writes, SimDuration gap) {
    auto space = std::make_unique<AddressSpace>(SpaceId(bed->sim().AllocateId()),
                                                bed->host(0)->id);
    Segment* image = bed->segments().CreateReal(64 * kPageSize, "img");
    for (PageIndex p = 0; p < 64; ++p) {
      image->StorePage(p, MakePatternPage(p + 1));
    }
    space->MapReal(0, 64 * kPageSize, image, 0, false);
    space->Validate(64 * kPageSize, 128 * kPageSize);

    auto proc = std::make_unique<Process>(ProcId(bed->sim().AllocateId()), "writer",
                                          bed->host(0), std::move(space), 11);
    TraceBuilder trace;
    for (int i = 0; i < writes; ++i) {
      trace.Write(PageBase(i % 64) + 100, static_cast<std::uint8_t>(i + 1));
      trace.Compute(gap);
    }
    trace.Terminate();
    proc->SetTrace(trace.Build(), 0);
    return proc;
  }

  MigrationRecord MigratePre(Testbed* bed, Process* proc, PreCopyConfig config) {
    MigrationRecord record;
    bool done = false;
    bed->manager(0)->RegisterLocal(proc);
    bed->manager(0)->MigratePreCopy(proc, bed->manager(1)->port(), config,
                                    [&](const MigrationRecord& r) {
                                      record = r;
                                      done = true;
                                    });
    bed->sim().Run();
    EXPECT_TRUE(done);
    return record;
  }
};

TEST_F(PreCopyTest, MigratesWithIntactData) {
  Testbed bed;
  auto proc = BuildWriter(&bed, 40, Ms(200));
  proc->Start();
  bed.sim().RunUntil(Ms(500));  // a few writes happen before migration starts

  const MigrationRecord record = MigratePre(&bed, proc.get(), PreCopyConfig{});
  ASSERT_EQ(bed.manager(1)->adopted().size(), 1u);
  Process* remote = bed.manager(1)->adopted()[0].get();
  EXPECT_TRUE(remote->done());

  // Every image page is present and correct — the written byte of each
  // touched page reflects the *last* write to it, wherever it happened.
  const Trace& trace = *remote->trace();
  std::map<PageIndex, std::uint8_t> last_write;
  for (const TraceOp& op : trace) {
    if (op.kind == TraceOp::Kind::kTouch && op.write) {
      last_write[PageOf(op.addr)] = op.value;
    }
  }
  for (PageIndex p = 0; p < 64; ++p) {
    const PageRef page = remote->space()->ReadPage(p);
    auto it = last_write.find(p);
    if (it != last_write.end()) {
      EXPECT_EQ(PageByteAt(page, 100), it->second) << "page " << p;
    }
    // Unwritten bytes of the image still match the original pattern.
    EXPECT_EQ(PageByteAt(page, 7), PageByteAt(MakePatternPage(p + 1), 7)) << "page " << p;
  }
  EXPECT_GE(record.precopy_rounds, 1);
}

TEST_F(PreCopyTest, DowntimeIsMuchSmallerThanPureCopy) {
  // Pure-copy baseline downtime.
  SimDuration copy_downtime;
  {
    Testbed bed;
    auto proc = BuildWriter(&bed, 30, Ms(100));
    proc->Start();
    bed.sim().RunUntil(Ms(300));
    MigrationRecord record;
    bool done = false;
    bed.manager(0)->RegisterLocal(proc.get());
    bed.manager(0)->Migrate(proc.get(), bed.manager(1)->port(), TransferStrategy::kPureCopy,
                            [&](const MigrationRecord& r) {
                              record = r;
                              done = true;
                            });
    bed.sim().Run();
    ASSERT_TRUE(done);
    copy_downtime = record.Downtime();
  }

  Testbed bed;
  auto proc = BuildWriter(&bed, 30, Ms(100));
  proc->Start();
  bed.sim().RunUntil(Ms(300));
  const MigrationRecord record = MigratePre(&bed, proc.get(), PreCopyConfig{});

  // 64 pages of image: pure-copy freezes through the whole ~3 s transfer;
  // pre-copy freezes only for the final dirty pages.
  EXPECT_LT(ToSeconds(record.Downtime()), ToSeconds(copy_downtime) * 0.8);
  EXPECT_GT(record.frozen, record.requested);  // it really ran during rounds
}

TEST_F(PreCopyTest, TotalBytesExceedPureCopy) {
  // Section 5: "both hosts still paid the transfer costs" — iterative
  // copying re-ships dirtied pages, so total traffic >= one full copy.
  ByteCount copy_bytes;
  {
    Testbed bed;
    auto proc = BuildWriter(&bed, 30, Ms(100));
    bed.manager(0)->RegisterLocal(proc.get());
    bool done = false;
    bed.manager(0)->Migrate(proc.get(), bed.manager(1)->port(), TransferStrategy::kPureCopy,
                            [&](const MigrationRecord&) { done = true; });
    bed.sim().Run();
    ASSERT_TRUE(done);
    copy_bytes = bed.traffic().TotalBytes();
  }

  Testbed bed;
  auto proc = BuildWriter(&bed, 30, Ms(100));
  proc->Start();
  bed.sim().RunUntil(Ms(300));
  const MigrationRecord record = MigratePre(&bed, proc.get(), PreCopyConfig{});
  EXPECT_GT(record.precopy_bytes, 0u);
  EXPECT_GE(bed.traffic().TotalBytes(), copy_bytes);
}

TEST_F(PreCopyTest, ConvergesEarlyWhenWritesStop) {
  Testbed bed;
  // Writes finish quickly; later rounds see an empty dirty set.
  auto proc = BuildWriter(&bed, 3, Ms(10));
  proc->Start();
  bed.sim().Run();  // run to completion? No: terminate would fire. Use a fresh one.
  // The process terminated already; use a never-started one instead: its
  // dirty set is empty after round 0, so pre-copy freezes at round 1.
  auto idle = BuildWriter(&bed, 5, Ms(10));
  PreCopyConfig config;
  config.max_rounds = 5;
  const MigrationRecord record = MigratePre(&bed, idle.get(), config);
  EXPECT_LE(record.precopy_rounds, 2);  // snapshot + at most one dirty round
  Process* remote = bed.manager(1)->adopted().back().get();
  EXPECT_TRUE(remote->done());
}

TEST_F(PreCopyTest, DirtyBitmapIsExactUnderCow) {
  // The dirty bitmap must record exactly the written pages — no more (reads
  // and faults of clean pages stay clean in the write-only trace below), no
  // fewer — and each first write to a freshly materialised page breaks COW
  // on the payload the pager shared in from the segment. Bitmap bits and
  // cow_breaks therefore move in lockstep.
  constexpr int kWrites = 24;  // 24 distinct pages (BuildWriter cycles i % 64)
  Testbed bed;
  auto proc = BuildWriter(&bed, kWrites, Ms(5));
  // Extend the trace: after a long pause, one more write to the (by then
  // resident, re-cleaned) first page — the trap case checked at the end.
  TraceBuilder trace;
  for (int i = 0; i < kWrites; ++i) {
    trace.Write(PageBase(i % 64) + 100, static_cast<std::uint8_t>(i + 1));
    trace.Compute(Ms(5));
  }
  trace.Compute(Sec(10.0));
  trace.Write(PageBase(0) + 101, 0x7f);
  trace.Terminate();
  proc->SetTrace(trace.Build(), 0);

  AddressSpace* space = proc->space();
  space->MarkAllClean();
  space->ArmWriteTracking();

  const PageCounterSnapshot before = ReadPageCounters();
  proc->Start();
  bed.sim().RunUntil(Sec(5.0));  // all kWrites writes done; mid-pause
  const PageCounterSnapshot after = ReadPageCounters();

  EXPECT_EQ(space->dirty_count(), static_cast<std::size_t>(kWrites));
  EXPECT_EQ(after.cow_breaks - before.cow_breaks, static_cast<std::uint64_t>(kWrites));
  for (PageIndex p = 0; p < kWrites; ++p) {
    EXPECT_TRUE(space->IsDirty(p)) << "page " << p;
  }
  for (PageIndex p = kWrites; p < 64; ++p) {
    EXPECT_FALSE(space->IsDirty(p)) << "page " << p;
  }
  // Non-resident first writes set the bitmap bit inside the page fault
  // they were already taking — no extra write-protect trap fires.
  EXPECT_EQ(space->tracked_write_faults(), 0u);

  // A write to a now-resident clean page is the case that does trip the
  // tracking trap: re-clean the bitmap and let the trace's final write run.
  space->MarkAllClean();
  bed.sim().Run();
  EXPECT_TRUE(proc->done());
  EXPECT_EQ(space->dirty_count(), 1u);
  EXPECT_TRUE(space->IsDirty(0));
  EXPECT_EQ(space->tracked_write_faults(), 1u);
}

TEST_F(PreCopyTest, SloPredictorFreezesEarly) {
  // A generous downtime target is met at the first ack — the predictor
  // freezes immediately instead of burning the remaining rounds.
  Testbed bed;
  auto proc = BuildWriter(&bed, 60, Ms(150));
  proc->Start();
  PreCopyConfig config;
  config.max_rounds = 8;
  config.stop_threshold = 0;
  config.target_downtime = Sec(30.0);
  const MigrationRecord record = MigratePre(&bed, proc.get(), config);
  EXPECT_EQ(record.precopy_rounds, 1);
  EXPECT_TRUE(record.precopy_slo_met);
  EXPECT_GT(ToSeconds(record.precopy_predicted_downtime), 0.0);
  EXPECT_LE(record.precopy_predicted_downtime, config.target_downtime);
}

TEST_F(PreCopyTest, StagnationCutsRoundsWhenWriterOutpacesWire) {
  // An unreachable target plus a writer that re-dirties its working set
  // every round: once a round fails to shrink the dirty set, further
  // rounds only waste bytes, so the manager freezes (well short of the
  // round cap) with the SLO honestly reported as missed.
  Testbed bed;
  auto proc = BuildWriter(&bed, 400, Ms(20));
  proc->Start();
  PreCopyConfig config;
  config.max_rounds = 16;
  config.stop_threshold = 0;
  config.target_downtime = Ms(1);
  const MigrationRecord record = MigratePre(&bed, proc.get(), config);
  EXPECT_LT(record.precopy_rounds, 16);
  EXPECT_FALSE(record.precopy_slo_met);
  // The WWS estimate tracked the writer's nonzero per-round dirty counts.
  EXPECT_GT(record.precopy_wws_pages, 0.0);
}

TEST_F(PreCopyTest, SweepIsThreadCountInvariant) {
  // Cells run in private testbeds, so sweep results — down to per-cell
  // round counts and byte totals — cannot depend on worker scheduling.
  const std::vector<FuzzScenario> specs = PreCopySweepSpecs(42);
  const std::vector<MechTrial> t1 = RunMechTrials(specs, 1);
  const std::vector<MechTrial> t2 = RunMechTrials(specs, 2);
  const std::vector<MechTrial> t8 = RunMechTrials(specs, 8);
  const Json j1 = PreCopySweepToJson(t1);
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t8.size());
  for (const std::vector<MechTrial>* other : {&t2, &t8}) {
    const Json other_json = PreCopySweepToJson(*other);
    for (std::size_t i = 0; i < t1.size(); ++i) {
      const MechTrial& a = t1[i];
      const MechTrial& b = (*other)[i];
      EXPECT_EQ(a.spec.workload, b.spec.workload);
      EXPECT_EQ(j1.Get("cells").AsArray()[i].Get("completed").AsBool(),
                other_json.Get("cells").AsArray()[i].Get("completed").AsBool());
      EXPECT_EQ(a.run.hop1.precopy_rounds, b.run.hop1.precopy_rounds)
          << a.spec.workload << " cell " << i;
      EXPECT_EQ(a.run.Downtime().count(), b.run.Downtime().count()) << a.spec.workload;
      EXPECT_EQ(a.run.PageBytes(), b.run.PageBytes()) << a.spec.workload;
      EXPECT_EQ(a.run.WireBytes(), b.run.WireBytes()) << a.spec.workload;
    }
  }
  EXPECT_EQ(j1.Get("completed").AsUint64(), t1.size());
  EXPECT_EQ(j1.Get("hung").AsUint64(), 0u);
  const std::string dump = j1.Dump();
  EXPECT_EQ(Fnv1aDigest(dump), kPreCopySweepDigest)
      << "pre-copy sweep changed: new digest 0x" << std::hex << Fnv1aDigest(dump);
}

TEST_F(PreCopyTest, RoundsAreAcknowledgedFlowControl) {
  Testbed bed;
  auto proc = BuildWriter(&bed, 60, Ms(150));
  proc->Start();
  PreCopyConfig config;
  config.max_rounds = 4;
  config.stop_threshold = 0;
  const MigrationRecord record = MigratePre(&bed, proc.get(), config);
  // All configured rounds ran (the writer keeps dirtying).
  EXPECT_EQ(record.precopy_rounds, 4);
  // Each round shipped something; bytes grow beyond one image copy.
  EXPECT_GT(record.precopy_bytes, 64u * kPageSize);
}

}  // namespace
}  // namespace accent
