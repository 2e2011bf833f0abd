// Unit tests for the simulation kernel and the host models (CPU, disk,
// physical memory).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/host/cpu.h"
#include "src/host/disk.h"
#include "src/host/physical_memory.h"
#include "src/sim/simulator.h"

namespace accent {
namespace {

// --- simulator ----------------------------------------------------------------

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Ms(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Ms(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Ms(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Ms(30));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(Ms(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(Ms(1), [&] {
    ++fired;
    sim.ScheduleAfter(Ms(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Ms(2));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Ms(10), [&] { ++fired; });
  sim.ScheduleAt(Ms(30), [&] { ++fired; });
  EXPECT_FALSE(sim.RunUntil(Ms(20)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Ms(20));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.RunUntil(Ms(100)));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilPartialDrain) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Ms(10), [&] { ++fired; });
  sim.ScheduleAt(Ms(50), [&] { ++fired; });
  sim.ScheduleAt(Ms(50) + Us(1), [&] { ++fired; });
  EXPECT_FALSE(sim.RunUntil(Ms(20)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.Now(), Ms(20));  // the clock parks at the deadline between runs
  // An event at exactly the deadline runs; one just past it does not.
  EXPECT_FALSE(sim.RunUntil(Ms(50)));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Ms(50));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.RunUntil(Ms(60)));
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, PendingEventTimesAreEarliestFirst) {
  Simulator sim;
  for (std::int64_t ms : {7, 3, 9, 1, 5}) {
    sim.ScheduleAt(Ms(ms), [] {});
  }
  EXPECT_EQ(sim.pending_events(), 5u);
  EXPECT_EQ(sim.PendingEventTimes(3), (std::vector<SimTime>{Ms(1), Ms(3), Ms(5)}));
  EXPECT_EQ(sim.PendingEventTimes(10),
            (std::vector<SimTime>{Ms(1), Ms(3), Ms(5), Ms(7), Ms(9)}));
  EXPECT_FALSE(sim.RunUntil(Ms(4)));
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.PendingEventTimes(1), (std::vector<SimTime>{Ms(5)}));
  EXPECT_TRUE(sim.PendingEventTimes(0).empty());
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  EXPECT_TRUE(sim.RunUntil(Ms(50)));
  EXPECT_EQ(sim.Now(), Ms(50));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Ms(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(Ms(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, AllocateIdIsUnique) {
  Simulator sim;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ids.insert(sim.AllocateId()).second);
  }
}

// --- cpu -----------------------------------------------------------------------

TEST(Cpu, SerialisesWorkFcfs) {
  Simulator sim;
  Cpu cpu(&sim, HostId(1));
  std::vector<int> order;
  SimTime first_done{0};
  SimTime second_done{0};
  cpu.Submit(CpuWork::kProcess, Ms(10), [&] {
    order.push_back(1);
    first_done = sim.Now();
  });
  cpu.Submit(CpuWork::kPager, Ms(5), [&] {
    order.push_back(2);
    second_done = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(first_done, Ms(10));
  EXPECT_EQ(second_done, Ms(15));  // queued behind the first
}

TEST(Cpu, AttributesBusyTimeByCategory) {
  Simulator sim;
  Cpu cpu(&sim, HostId(1));
  cpu.Submit(CpuWork::kNetMsgServer, Ms(7), nullptr);
  cpu.Submit(CpuWork::kNetMsgServer, Ms(3), nullptr);
  cpu.Submit(CpuWork::kPager, Ms(5), nullptr);
  sim.Run();
  EXPECT_EQ(cpu.BusyTime(CpuWork::kNetMsgServer), Ms(10));
  EXPECT_EQ(cpu.BusyTime(CpuWork::kPager), Ms(5));
  EXPECT_EQ(cpu.BusyTime(CpuWork::kProcess), Ms(0));
  EXPECT_EQ(cpu.TotalBusyTime(), Ms(15));
  cpu.ResetAccounting();
  EXPECT_EQ(cpu.TotalBusyTime(), Ms(0));
}

TEST(Cpu, IdleGapsDontAccumulateBusy) {
  Simulator sim;
  Cpu cpu(&sim, HostId(1));
  cpu.Submit(CpuWork::kProcess, Ms(2), nullptr);
  sim.Run();
  sim.ScheduleAt(Ms(100), [&] { cpu.Submit(CpuWork::kProcess, Ms(2), nullptr); });
  sim.Run();
  EXPECT_EQ(cpu.TotalBusyTime(), Ms(4));
  EXPECT_EQ(cpu.available_at(), Ms(102));
}

TEST(Cpu, ZeroCostWorkCompletesImmediately) {
  Simulator sim;
  Cpu cpu(&sim, HostId(1));
  bool done = false;
  cpu.Submit(CpuWork::kKernel, SimDuration::zero(), [&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.Now(), SimTime{0});
}

// --- disk ------------------------------------------------------------------------

TEST(Disk, ChargesPerPageLatency) {
  Simulator sim;
  CostTable costs;
  Disk disk(&sim, &costs);
  SimTime done_at{0};
  disk.Read(2, [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, costs.disk_page_read * 2);
  EXPECT_EQ(disk.reads_completed(), 2u);
}

TEST(Disk, QueuesRequestsFcfs) {
  Simulator sim;
  CostTable costs;
  Disk disk(&sim, &costs);
  SimTime read_done{0};
  SimTime write_done{0};
  disk.Write(1, [&] { write_done = sim.Now(); });
  disk.Read(1, [&] { read_done = sim.Now(); });
  sim.Run();
  EXPECT_EQ(write_done, costs.disk_page_write);
  EXPECT_EQ(read_done, costs.disk_page_write + costs.disk_page_read);
  EXPECT_EQ(disk.busy_time(), costs.disk_page_write + costs.disk_page_read);
}

// --- physical memory ------------------------------------------------------------------

TEST(PhysicalMemory, InsertAndContains) {
  PhysicalMemory memory(4);
  const SpaceId space(1);
  EXPECT_FALSE(memory.Contains(space, 10));
  EXPECT_FALSE(memory.Insert(space, 10, false).has_value());
  EXPECT_TRUE(memory.Contains(space, 10));
  EXPECT_EQ(memory.used_frames(), 1u);
}

TEST(PhysicalMemory, EvictsLeastRecentlyUsed) {
  PhysicalMemory memory(2);
  const SpaceId space(1);
  memory.Insert(space, 1, false);
  memory.Insert(space, 2, false);
  memory.Touch(space, 1);  // 2 becomes LRU
  auto eviction = memory.Insert(space, 3, false);
  ASSERT_TRUE(eviction.has_value());
  EXPECT_EQ(eviction->page, 2u);
  EXPECT_FALSE(eviction->dirty);
  EXPECT_TRUE(memory.Contains(space, 1));
  EXPECT_FALSE(memory.Contains(space, 2));
}

TEST(PhysicalMemory, DirtyBitTravelsWithEviction) {
  PhysicalMemory memory(1);
  const SpaceId space(1);
  memory.Insert(space, 1, false);
  memory.MarkDirty(space, 1);
  EXPECT_TRUE(memory.IsDirty(space, 1));
  auto eviction = memory.Insert(space, 2, false);
  ASSERT_TRUE(eviction.has_value());
  EXPECT_TRUE(eviction->dirty);
}

TEST(PhysicalMemory, ReinsertRefreshesRecencyAndDirtiness) {
  PhysicalMemory memory(2);
  const SpaceId space(1);
  memory.Insert(space, 1, true);
  memory.Insert(space, 2, false);
  EXPECT_FALSE(memory.Insert(space, 1, false).has_value());  // refresh, no eviction
  EXPECT_TRUE(memory.IsDirty(space, 1));                     // dirtiness sticks
  auto eviction = memory.Insert(space, 3, false);
  ASSERT_TRUE(eviction.has_value());
  EXPECT_EQ(eviction->page, 2u);  // 1 was refreshed, 2 is the victim
}

TEST(PhysicalMemory, SpacesAreIndependent) {
  PhysicalMemory memory(10);
  const SpaceId a(1);
  const SpaceId b(2);
  memory.Insert(a, 5, false);
  memory.Insert(b, 5, true);
  EXPECT_TRUE(memory.Contains(a, 5));
  EXPECT_TRUE(memory.Contains(b, 5));
  EXPECT_FALSE(memory.IsDirty(a, 5));
  EXPECT_TRUE(memory.IsDirty(b, 5));
  EXPECT_EQ(memory.ResidentCount(a), 1u);
}

TEST(PhysicalMemory, RemoveSpaceDropsEverything) {
  PhysicalMemory memory(10);
  const SpaceId a(1);
  const SpaceId b(2);
  memory.Insert(a, 1, false);
  memory.Insert(a, 2, false);
  memory.Insert(b, 3, false);
  const auto removed = memory.RemoveSpace(a);
  EXPECT_EQ(removed, (std::vector<PageIndex>{1, 2}));
  EXPECT_EQ(memory.used_frames(), 1u);
  EXPECT_TRUE(memory.Contains(b, 3));
}

TEST(PhysicalMemory, PagesOfSortedAscending) {
  PhysicalMemory memory(10);
  const SpaceId space(1);
  for (PageIndex p : {9u, 3u, 7u, 1u}) {
    memory.Insert(space, p, false);
  }
  EXPECT_EQ(memory.PagesOf(space), (std::vector<PageIndex>{1, 3, 7, 9}));
}

TEST(PhysicalMemory, RemoveSingleIsIdempotent) {
  PhysicalMemory memory(4);
  const SpaceId space(1);
  memory.Insert(space, 1, false);
  memory.Remove(space, 1);
  memory.Remove(space, 1);
  EXPECT_EQ(memory.used_frames(), 0u);
}

}  // namespace
}  // namespace accent
