// Unit tests for the simulation kernel and the host models (CPU, disk,
// physical memory).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>
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

TEST(Simulator, StopInsideRunUntilKeepsClockAtTheStoppingEvent) {
  Simulator sim;
  std::vector<SimTime> fired_at;
  sim.ScheduleAt(Ms(10), [&] {
    fired_at.push_back(sim.Now());
    sim.Stop();
  });
  sim.ScheduleAt(Ms(20), [&] { fired_at.push_back(sim.Now()); });
  EXPECT_FALSE(sim.RunUntil(Ms(100)));
  EXPECT_EQ(sim.pending_events(), 1u);
  // A stopped loop leaves the clock at the stopping event: parking it at
  // the deadline would put it past the still-pending 20-ms event.
  ASSERT_EQ(sim.Now(), Ms(10));
  sim.ScheduleAt(Ms(50), [&] { fired_at.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{Ms(10), Ms(20), Ms(50)}));
  EXPECT_EQ(sim.Now(), Ms(50));
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
  EXPECT_EQ(memory.RemoveSpace(a), 2u);
  EXPECT_FALSE(memory.Contains(a, 1));
  EXPECT_FALSE(memory.Contains(a, 2));
  EXPECT_EQ(memory.ResidentCount(a), 0u);
  EXPECT_TRUE(memory.PagesOf(a).empty());
  EXPECT_EQ(memory.used_frames(), 1u);
  EXPECT_TRUE(memory.Contains(b, 3));
  EXPECT_EQ(memory.PagesOf(b), (std::vector<PageIndex>{3}));
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

// The list-and-hash-map frame pool the slot table replaced, kept as the
// model: same LRU order, same victims, same dirty bits.
class ReferencePool {
 public:
  explicit ReferencePool(std::size_t frame_count) : frame_count_(frame_count) {}

  std::optional<PhysicalMemory::Eviction> Insert(SpaceId space, PageIndex page, bool dirty) {
    const Key key{space.value, page};
    auto it = frames_.find(key);
    if (it != frames_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      it->second.dirty = it->second.dirty || dirty;
      return std::nullopt;
    }
    std::optional<PhysicalMemory::Eviction> eviction;
    if (frames_.size() >= frame_count_) {
      const Key victim = lru_.back();
      eviction = PhysicalMemory::Eviction{SpaceId(victim.first), victim.second,
                                          frames_.at(victim).dirty};
      lru_.pop_back();
      frames_.erase(victim);
    }
    lru_.push_front(key);
    frames_.emplace(key, Frame{lru_.begin(), dirty});
    return eviction;
  }
  bool Contains(SpaceId space, PageIndex page) const {
    return frames_.count(Key{space.value, page}) != 0;
  }
  void Touch(SpaceId space, PageIndex page) {
    lru_.splice(lru_.begin(), lru_, frames_.at(Key{space.value, page}).lru_pos);
  }
  void MarkDirty(SpaceId space, PageIndex page) {
    frames_.at(Key{space.value, page}).dirty = true;
  }
  bool IsDirty(SpaceId space, PageIndex page) const {
    auto it = frames_.find(Key{space.value, page});
    return it != frames_.end() && it->second.dirty;
  }
  void Remove(SpaceId space, PageIndex page) {
    auto it = frames_.find(Key{space.value, page});
    if (it != frames_.end()) {
      lru_.erase(it->second.lru_pos);
      frames_.erase(it);
    }
  }
  std::size_t RemoveSpace(SpaceId space) {
    const std::vector<PageIndex> pages = PagesOf(space);
    for (PageIndex page : pages) {
      Remove(space, page);
    }
    return pages.size();
  }
  std::vector<PageIndex> PagesOf(SpaceId space) const {
    std::vector<PageIndex> pages;
    for (const auto& [key, frame] : frames_) {
      if (key.first == space.value) {
        pages.push_back(key.second);
      }
    }
    std::sort(pages.begin(), pages.end());
    return pages;
  }
  std::size_t used_frames() const { return frames_.size(); }

 private:
  using Key = std::pair<std::uint64_t, PageIndex>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()(k.first * 0x9e3779b97f4a7c15ull ^ k.second);
    }
  };
  struct Frame {
    std::list<Key>::iterator lru_pos;
    bool dirty = false;
  };
  std::size_t frame_count_;
  std::list<Key> lru_;  // front = most recent, back = victim
  std::unordered_map<Key, Frame, KeyHash> frames_;
};

// Seeded random Insert (clean and dirty), Touch, MarkDirty, Remove and
// RemoveSpace over three spaces, compared with the reference after every
// step: the eviction, the counts, each space's pages, and Contains and
// IsDirty of the step's page and every resident one. Frame counts 1-8 keep
// the pool evicting; 200 frames grows the index from 16 to 512 buckets, so
// probe runs get long enough for backward-shift deletion to move entries.
// Stale index entries show in a sweep of every (space, page) pair, run
// after each step of the small pools, after every RemoveSpace, and every
// 16th step of the large one.
TEST(PhysicalMemory, MatchesListAndMapReferenceUnderRandomOps) {
  const SpaceId spaces[] = {SpaceId(3), SpaceId(17), SpaceId(40)};
  for (std::size_t frames : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 200u}) {
    const PageIndex page_range = 2 * frames + 3;
    const int steps = frames > 8 ? 4000 : 1500;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::mt19937_64 rng(seed * 1000 + frames);
      PhysicalMemory memory(frames);
      ReferencePool reference(frames);
      std::size_t peak = 0;
      // Whether Contains or IsDirty of (s, p) disagrees with the reference.
      auto mismatch = [&](SpaceId s, PageIndex p) {
        return memory.Contains(s, p) != reference.Contains(s, p) ||
               memory.IsDirty(s, p) != reference.IsDirty(s, p);
      };
      for (int step = 0; step < steps; ++step) {
        const SpaceId space = spaces[rng() % 3];
        const PageIndex page = rng() % page_range;
        const std::uint64_t op = rng() % 200;
        bool sweep = frames <= 8 || step % 16 == 0;
        if (op < 100) {
          const bool dirty = rng() % 2 == 0;
          const auto got = memory.Insert(space, page, dirty);
          const auto want = reference.Insert(space, page, dirty);
          ASSERT_EQ(got.has_value(), want.has_value())
              << "frames " << frames << " seed " << seed << " step " << step;
          if (want.has_value()) {
            ASSERT_EQ(got->space, want->space) << "step " << step;
            ASSERT_EQ(got->page, want->page) << "step " << step;
            ASSERT_EQ(got->dirty, want->dirty) << "step " << step;
            ASSERT_FALSE(mismatch(want->space, want->page)) << "victim, step " << step;
          }
        } else if (op < 135) {
          const bool resident = reference.Contains(space, page);
          ASSERT_EQ(memory.Touch(space, page), resident) << "step " << step;
          if (resident) {
            reference.Touch(space, page);
          }
        } else if (op < 160) {
          if (reference.Contains(space, page)) {
            memory.MarkDirty(space, page);
            reference.MarkDirty(space, page);
          }
        } else if (op < 198) {
          memory.Remove(space, page);
          reference.Remove(space, page);
        } else {
          ASSERT_EQ(memory.RemoveSpace(space), reference.RemoveSpace(space))
              << "frames " << frames << " seed " << seed << " step " << step;
          sweep = true;
        }

        ASSERT_FALSE(mismatch(space, page))
            << "frames " << frames << " seed " << seed << " step " << step;
        ASSERT_EQ(memory.used_frames(), reference.used_frames())
            << "frames " << frames << " seed " << seed << " step " << step;
        peak = std::max(peak, memory.used_frames());
        for (SpaceId s : spaces) {
          const std::vector<PageIndex> pages = reference.PagesOf(s);
          ASSERT_EQ(memory.ResidentCount(s), pages.size()) << "step " << step;
          ASSERT_EQ(memory.PagesOf(s), pages) << "step " << step;
          for (PageIndex p : pages) {
            ASSERT_FALSE(mismatch(s, p)) << "step " << step << " page " << p;
          }
          for (PageIndex p = 0; sweep && p < page_range; ++p) {
            ASSERT_FALSE(mismatch(s, p))
                << "frames " << frames << " seed " << seed << " step " << step << " page " << p;
          }
        }
      }
      EXPECT_EQ(peak, frames) << "the run never filled the pool; seed " << seed;
    }
  }
}

}  // namespace
}  // namespace accent
