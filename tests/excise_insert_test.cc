// ExciseProcess / InsertProcess tests: the two messages are self-contained
// and reconstruct the process bit-for-bit, including port rights, trace
// position and every memory class.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "src/experiments/testbed.h"
#include "src/proc/excise.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

class ExciseInsertTest : public ::testing::Test {
 protected:
  // Builds a small process on host 0 with all three memory classes.
  std::unique_ptr<Process> BuildProcess() {
    auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                                bed.host(0)->id);
    image_ = bed.segments().CreateReal(8 * kPageSize, "img");
    for (PageIndex p = 0; p < 8; ++p) {
      image_->StorePage(p, MakePatternPage(p + 1));
    }
    space->MapReal(0, 8 * kPageSize, image_, 0, false);
    space->Validate(8 * kPageSize, 16 * kPageSize);
    // Private page with a distinctive byte.
    space->InstallPage(2, MakePatternPage(42));
    bed.host(0)->memory->Insert(space->id(), 0, false);
    bed.host(0)->memory->Insert(space->id(), 2, true);

    auto proc = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), "guinea", bed.host(0),
                                          std::move(space), /*microstate_token=*/0xfeed);
    proc->SetTrace(TraceBuilder().Compute(Ms(1)).Terminate().Build(), 0);
    return proc;
  }

  ExciseResult Excise(Process* proc) {
    ExciseResult result;
    bool done = false;
    ExciseProcess(proc, [&](ExciseResult r) {
      result = std::move(r);
      done = true;
    });
    bed.sim().Run();
    EXPECT_TRUE(done);
    return result;
  }

  std::unique_ptr<Process> Insert(HostEnv* env, ExciseResult excised) {
    std::unique_ptr<Process> inserted;
    bool done = false;
    InsertProcess(env, std::move(excised.core), std::move(excised.rimas),
                  [&](std::unique_ptr<Process> p, InsertResult) {
                    inserted = std::move(p);
                    done = true;
                  });
    bed.sim().Run();
    EXPECT_TRUE(done);
    return inserted;
  }

  Testbed bed;
  Segment* image_ = nullptr;
};

TEST_F(ExciseInsertTest, CoreMessageCarriesContext) {
  auto proc = BuildProcess();
  const PortId port = bed.fabric().AllocatePort(bed.host(0)->id, nullptr, "owned");
  proc->AttachReceiveRight(port);
  ExciseResult excised = Excise(proc.get());

  EXPECT_EQ(excised.core.op, MsgOp::kMigrateCore);
  EXPECT_TRUE(excised.core.has_amap);
  EXPECT_EQ(excised.core.inline_bytes, bed.costs().core_context_bytes);
  ASSERT_EQ(excised.core.rights.size(), 1u);
  EXPECT_EQ(excised.core.rights[0].port, port);
  const auto& body = excised.core.BodyAs<CoreBody>();
  EXPECT_EQ(body.microstate_token, 0xfeedu);
  EXPECT_EQ(body.name, "guinea");
  EXPECT_EQ(proc->state(), ProcState::kExcised);
}

TEST_F(ExciseInsertTest, RimasCarriesRealDataAndShape) {
  auto proc = BuildProcess();
  ExciseResult excised = Excise(proc.get());
  ASSERT_EQ(excised.rimas.regions.size(), 1u);  // one Real interval
  const MemoryRegion& region = excised.rimas.regions[0];
  EXPECT_EQ(region.mem_class, MemClass::kReal);
  EXPECT_EQ(region.size, 8 * kPageSize);
  EXPECT_EQ(region.pages[1], MakePatternPage(2));
  EXPECT_EQ(region.pages[2], MakePatternPage(42));  // private copy shipped, not origin
  // RealZero never travels: the AMap describes it.
  EXPECT_EQ(excised.core.amap.BytesOf(MemClass::kRealZero), 8 * kPageSize);
}

TEST_F(ExciseInsertTest, ExcisionClearsResidency) {
  auto proc = BuildProcess();
  const SpaceId space = proc->space()->id();
  EXPECT_EQ(bed.host(0)->memory->ResidentCount(space), 2u);
  Excise(proc.get());
  EXPECT_EQ(bed.host(0)->memory->ResidentCount(space), 0u);
}

TEST_F(ExciseInsertTest, RoundTripPreservesEveryByte) {
  auto proc = BuildProcess();
  ExciseResult excised = Excise(proc.get());
  auto inserted = Insert(bed.host(1), std::move(excised));
  ASSERT_NE(inserted, nullptr);

  AddressSpace* space = inserted->space();
  EXPECT_EQ(space->host(), bed.host(1)->id);
  for (PageIndex p = 0; p < 8; ++p) {
    const PageData expected = p == 2 ? MakePatternPage(42) : MakePatternPage(p + 1);
    EXPECT_EQ(space->ReadPage(p), expected) << "page " << p;
  }
  EXPECT_EQ(space->ClassOf(8 * kPageSize), MemClass::kRealZero);
  EXPECT_EQ(space->ClassOf(16 * kPageSize), MemClass::kBad);
  EXPECT_EQ(space->RealBytes(), 8 * kPageSize);
  EXPECT_EQ(space->RealZeroBytes(), 8 * kPageSize);
  EXPECT_EQ(inserted->microstate_token(), 0xfeedu);
  EXPECT_EQ(inserted->state(), ProcState::kReady);
  // Shipped pages arrive resident.
  EXPECT_EQ(bed.host(1)->memory->ResidentCount(space->id()), 8u);
}

TEST_F(ExciseInsertTest, PortRightsMoveWithContext) {
  auto proc = BuildProcess();
  const PortId port = bed.fabric().AllocatePort(bed.host(0)->id, nullptr, "owned");
  proc->AttachReceiveRight(port);
  ExciseResult excised = Excise(proc.get());
  auto inserted = Insert(bed.host(1), std::move(excised));

  EXPECT_EQ(bed.fabric().HomeOf(port), bed.host(1)->id);
  // A sender on host 0 still reaches the port (location transparency).
  Message msg;
  msg.dest = port;
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  bed.sim().Run();
  EXPECT_EQ(inserted->user_messages_received(), 1u);
}

TEST_F(ExciseInsertTest, TracePositionSurvives) {
  auto proc = BuildProcess();
  auto trace = TraceBuilder()
                   .Compute(Ms(1))
                   .Read(0)
                   .Compute(Ms(1))
                   .Terminate()
                   .Build();
  proc->SetTrace(trace, 2);  // already past the first two ops
  ExciseResult excised = Excise(proc.get());
  auto inserted = Insert(bed.host(1), std::move(excised));
  EXPECT_EQ(inserted->trace_pc(), 2u);
  inserted->Start();
  bed.sim().Run();
  EXPECT_TRUE(inserted->done());
}

TEST_F(ExciseInsertTest, ImaginaryMappingsSurviveReExcision) {
  // A process whose memory is still partly owed can be excised again and
  // the IOUs keep pointing at the original backer (re-migration).
  auto proc = BuildProcess();
  AddressSpace* space = proc->space();
  const IouRef iou{bed.netmsg(1)->backing_port(), SegmentId(4242), 0};
  Segment* standin = bed.segments().CreateImaginary(kAddressSpaceLimit, iou, "standin");
  space->MapImaginary(32 * kPageSize, 40 * kPageSize, standin, 32 * kPageSize);

  ExciseResult excised = Excise(proc.get());
  bool found_iou = false;
  for (const MemoryRegion& region : excised.rimas.regions) {
    if (region.mem_class == MemClass::kImag) {
      found_iou = true;
      EXPECT_EQ(region.iou.backing_port, bed.netmsg(1)->backing_port());
      EXPECT_EQ(region.iou.segment, SegmentId(4242));
      EXPECT_EQ(region.iou.offset, 32 * kPageSize);
    }
  }
  EXPECT_TRUE(found_iou);

  auto inserted = Insert(bed.host(1), std::move(excised));
  EXPECT_EQ(inserted->space()->ClassOf(33 * kPageSize), MemClass::kImag);
  const auto target = inserted->space()->ImagTargetOf(33 * kPageSize);
  EXPECT_EQ(target.backer_offset, 33 * kPageSize);
}

// A RIMAS whose Real interval interleaves shipped runs with owed pages, one
// shipped zero page, and one staged pre-copy run appended after every other
// region (out of address order, as MergeStagedPages leaves it), inserted
// into a destination whose six frames are full, four of them dirty:
// arriving pages evict dirty frames, so the disk writes and the surviving
// resident set pin the order pages reach physical memory. The expected
// values are what a page-by-page install produces.
TEST(InsertRuns, InterleavedAndStagedRunsInstallInPageOrder) {
  TestbedConfig config;
  config.frames_per_host = 6;
  Testbed bed(config);
  HostEnv* dest = bed.host(1);
  const SpaceId bystander(bed.sim().AllocateId());
  for (PageIndex p = 0; p < 6; ++p) {
    dest->memory->Insert(bystander, 1000 + p, /*dirty=*/p % 3 != 0);
  }

  AMap amap;
  amap.Set(PageBase(16), PageBase(48), MemClass::kReal);
  amap.Set(PageBase(48), PageBase(64), MemClass::kRealZero);
  amap.Set(PageBase(64), PageBase(72), MemClass::kReal);
  amap.Set(PageBase(80), PageBase(88), MemClass::kImag);

  Message core;
  core.op = MsgOp::kMigrateCore;
  core.amap = amap;
  core.has_amap = true;
  CoreBody body;
  body.proc = ProcId(bed.sim().AllocateId());
  body.name = "runs";
  body.trace = TraceBuilder().Compute(Ms(1)).Terminate().Build();
  core.body = body;

  const PortId backer = bed.netmsg(0)->backing_port();
  auto data = [](PageIndex first, PageIndex count) {
    std::vector<PageRef> pages;
    for (PageIndex p = first; p < first + count; ++p) {
      pages.push_back(p == 25 ? PageRef{} : PageRef(MakePatternPage(p)));
    }
    return MemoryRegion::Data(PageBase(first), std::move(pages));
  };
  auto owed = [backer](PageIndex first, PageIndex end) {
    return MemoryRegion::Iou(PageBase(first), PageBase(end) - PageBase(first),
                             IouRef{backer, SegmentId(4242), PageBase(first)});
  };
  Message rimas;
  rimas.op = MsgOp::kMigrateRimas;
  rimas.body = RimasBody{body.proc};
  rimas.regions = {data(16, 4), owed(20, 24), data(24, 2), owed(26, 40), owed(44, 46),
                   data(46, 2), data(64, 8),  owed(80, 88), data(40, 4)};

  std::unique_ptr<Process> inserted;
  InsertProcess(dest, std::move(core), std::move(rimas),
                [&](std::unique_ptr<Process> p, InsertResult) { inserted = std::move(p); });
  bed.sim().Run();
  ASSERT_NE(inserted, nullptr);
  const AddressSpace& space = *inserted->space();

  std::vector<std::tuple<PageIndex, PageIndex, MemClass>> intervals;
  space.amap().ForEach([&](const AMap::Interval& iv) {
    intervals.emplace_back(PageOf(iv.begin), PageOf(iv.end), iv.value);
  });
  const std::vector<std::tuple<PageIndex, PageIndex, MemClass>> want_intervals = {
      {16, 20, MemClass::kReal}, {20, 24, MemClass::kImag},     {24, 26, MemClass::kReal},
      {26, 40, MemClass::kImag}, {40, 44, MemClass::kReal},     {44, 46, MemClass::kImag},
      {46, 48, MemClass::kReal}, {48, 64, MemClass::kRealZero}, {64, 72, MemClass::kReal},
      {80, 88, MemClass::kImag}};
  EXPECT_EQ(intervals, want_intervals);

  const std::vector<PageIndex> want_dirty = {16, 17, 18, 19, 24, 25, 40, 41, 42, 43, 46, 47,
                                             64, 65, 66, 67, 68, 69, 70, 71};
  EXPECT_EQ(space.DirtyPages(), want_dirty);
  EXPECT_EQ(dest->memory->ResidentCount(space.id()), 6u);
  EXPECT_EQ(dest->memory->PagesOf(space.id()), (std::vector<PageIndex>{66, 67, 68, 69, 70, 71}));
  EXPECT_EQ(dest->memory->ResidentCount(bystander), 0u);
  EXPECT_EQ(dest->disk->writes_completed(), 18u);

  for (PageIndex p : want_dirty) {
    ASSERT_TRUE(space.HasPrivatePage(p)) << "page " << p;
    EXPECT_EQ(space.ReadPage(p), p == 25 ? PageData{} : MakePatternPage(p)) << "page " << p;
  }
  EXPECT_FALSE(space.HasPrivatePage(20));
  EXPECT_EQ(space.ImagTargetOf(PageBase(33)).backer_offset, PageBase(33));
  EXPECT_EQ(space.ImagTargetOf(PageBase(45)).backer_offset, PageBase(45));
}

TEST_F(ExciseInsertTest, ExciseTimingsFollowCostModel) {
  // On an idle host every phase runs the moment it is submitted, so each
  // measured time is exactly the MigrationCostModel term that was charged.
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    SCOPED_TRACE(spec.name);
    Testbed idle;
    const CostTable& costs = *idle.host(0)->costs;
    WorkloadInstance instance = BuildWorkload(spec, idle.host(0), 42);
    const MigrationCostModel::Footprint fp = FootprintOf(*instance.process);

    std::optional<ExciseResult> excised;
    ExciseProcess(instance.process.get(), [&](ExciseResult r) { excised = std::move(r); });
    idle.sim().Run();
    ASSERT_TRUE(excised.has_value());
    EXPECT_EQ(excised->amap_time, MigrationCostModel::ExciseAmapCost(costs, fp));
    EXPECT_EQ(excised->rimas_time, MigrationCostModel::ExciseRimasCost(costs, fp));
    EXPECT_EQ(excised->overall_time, MigrationCostModel::ExciseCost(costs, fp));
    if (spec.name == "Minprog") {
      EXPECT_LT(ToSeconds(excised->overall_time), 1.0);  // Table 4-4's smallest excision
    }

    const auto entries = static_cast<std::int64_t>(excised->core.amap.entry_count());
    std::int64_t shipped = 0;
    for (const MemoryRegion& region : excised->rimas.regions) {
      if (region.mem_class == MemClass::kReal) {
        shipped += static_cast<std::int64_t>(region.size / kPageSize);
      }
    }
    std::unique_ptr<Process> inserted;
    InsertResult insert;
    InsertProcess(idle.host(1), std::move(excised->core), std::move(excised->rimas),
                  [&](std::unique_ptr<Process> p, InsertResult r) {
                    inserted = std::move(p);
                    insert = r;
                  });
    idle.sim().Run();
    ASSERT_NE(inserted, nullptr);
    EXPECT_EQ(insert.insert_time, MigrationCostModel::InsertCost(costs, entries, shipped));
  }
}

}  // namespace
}  // namespace accent
