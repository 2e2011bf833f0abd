// Simulator event-queue contract: same-instant FIFO ordering, (time,
// scheduling order) at fleet depth, reserved sequence numbers scheduled
// late, the no-scheduling-into-the-past and reserved-number preconditions,
// ownership of pending callables, and the InlineEvent callable (inline
// small-buffer path, heap fallback, move-only captures).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/event.h"
#include "src/sim/simulator.h"

namespace accent {
namespace {

TEST(SimulatorOrdering, SameInstantEventsRunInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  // Interleave two instants; within each instant, scheduling order must be
  // execution order regardless of insertion interleaving.
  sim.ScheduleAt(Us(10), [&] { order.push_back(0); });
  sim.ScheduleAt(Us(5), [&] { order.push_back(100); });
  sim.ScheduleAt(Us(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Us(5), [&] { order.push_back(101); });
  sim.ScheduleAt(Us(10), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{100, 101, 0, 1, 2}));
}

TEST(SimulatorOrdering, FifoHoldsForEventsScheduledFromInsideAnEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Us(10), [&] {
    order.push_back(0);
    // Same-instant events scheduled mid-execution run after already-queued
    // same-instant events (they get later sequence numbers).
    sim.ScheduleAt(Us(10), [&] { order.push_back(2); });
  });
  sim.ScheduleAt(Us(10), [&] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorOrdering, FifoSurvivesQueueGrowthAcrossManyEvents) {
  Simulator sim;
  std::vector<int> order;
  constexpr int kCount = 5000;  // forces several vector regrowths
  for (int i = 0; i < kCount; ++i) {
    sim.ScheduleAt(Us(7), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << "at " << i;
  }
}

// Half the draws fall on four instants (many ties), half anywhere in ten
// seconds.
SimDuration DrawDelay(Rng& rng) {
  static constexpr std::array<std::int64_t, 4> kTied{0, 1, 1000, 250'000};
  if (rng.NextBool(0.5)) {
    return Us(kTied[rng.NextBelow(kTied.size())]);
  }
  return Us(static_cast<std::int64_t>(rng.NextBelow(10'000'000)));
}

// Differential check at fleet depth: a seeded mix of tied and spread-out
// times, events that schedule children at delay 0 and later, drained in
// slices by RunUntil and then by Run. Whatever the queue's layout, events
// must run in (time, scheduling order), the order a plain sort of every
// scheduled event gives.
TEST(SimulatorOrdering, DeepQueueMatchesTimeThenSeqOrder) {
  struct Scheduled {
    SimTime when{0};
    std::uint64_t id = 0;  // scheduling order
  };
  struct Harness {
    Simulator sim;
    Rng rng{20240601};
    std::vector<Scheduled> scheduled;
    std::vector<std::uint64_t> executed;

    void Schedule(SimTime when, int depth) {
      const std::uint64_t id = scheduled.size();
      scheduled.push_back(Scheduled{when, id});
      sim.ScheduleAt(when, [this, id, depth] { Fire(id, depth); });
    }
    void Fire(std::uint64_t id, int depth) {
      executed.push_back(id);
      if (depth >= 2) {
        return;
      }
      switch (rng.NextBelow(4)) {
        case 0:  // same instant: runs after everything already queued there
          Schedule(sim.Now(), depth + 1);
          break;
        case 1:
          Schedule(sim.Now() + DrawDelay(rng), depth + 1);
          break;
        default:
          break;
      }
    }
    // Everything due by `deadline` ran in (time, id) order, and the queue
    // holds exactly the rest.
    void ExpectDrainedTo(SimTime deadline) {
      std::vector<Scheduled> reference = scheduled;
      std::sort(reference.begin(), reference.end(),
                [](const Scheduled& a, const Scheduled& b) {
                  return a.when != b.when ? a.when < b.when : a.id < b.id;
                });
      const auto due = static_cast<std::size_t>(
          std::partition_point(reference.begin(), reference.end(),
                               [deadline](const Scheduled& s) { return s.when <= deadline; }) -
          reference.begin());
      ASSERT_EQ(executed.size(), due) << "deadline " << deadline.count() << "us";
      for (std::size_t i = 0; i < due; ++i) {
        ASSERT_EQ(executed[i], reference[i].id) << "at position " << i;
      }
      const std::size_t pending = reference.size() - due;
      ASSERT_EQ(sim.pending_events(), pending);
      for (std::size_t limit : {std::size_t{1}, std::size_t{64}, pending}) {
        std::vector<SimTime> expected;
        for (std::size_t i = due; i < reference.size() && expected.size() < limit; ++i) {
          expected.push_back(reference[i].when);
        }
        EXPECT_EQ(sim.PendingEventTimes(limit), expected) << "limit " << limit;
      }
    }
  };

  Harness h;
  constexpr int kRoots = 100'000;
  for (int i = 0; i < kRoots; ++i) {
    h.Schedule(DrawDelay(h.rng), 0);
  }
  for (SimTime deadline : {Us(0), Ms(1), Ms(250), Sec(2.5), Sec(6.0)}) {
    EXPECT_FALSE(h.sim.RunUntil(deadline));
    ASSERT_EQ(h.sim.Now(), deadline);
    h.ExpectDrainedTo(deadline);
    if (HasFatalFailure()) {
      return;
    }
    // Fresh roots between slices, some at the parked clock itself.
    for (int i = 0; i < 5000; ++i) {
      h.Schedule(h.sim.Now() + DrawDelay(h.rng), 0);
    }
  }
  h.sim.Run();
  EXPECT_TRUE(h.sim.empty());
  EXPECT_GT(h.scheduled.size(), static_cast<std::size_t>(kRoots) * 3 / 2);
  h.ExpectDrainedTo(SimTime::max());
}

// Reserved numbers: a seeded mix of events scheduled directly and series
// whose numbers are reserved in one block when the series starts but whose
// events are scheduled one at a time, each as its predecessor fires (the
// fleet's arrivals, ticks and slices). Both kinds crowd the same instants.
// Events must run in (time, numbering order), where a reserved event is
// numbered at its reservation: the order a plain sort gives, as if every
// series had been scheduled whole when it started.
TEST(SimulatorOrdering, ReservedNumbersKeepTheirPlaceWhenScheduledLate) {
  struct Numbered {
    SimTime when{0};
    std::uint64_t id = 0;  // numbering order
    bool reserved = false;
  };
  struct Series {
    std::vector<SimTime> times;
    std::uint64_t first = 0;
    std::size_t next = 0;  // first event not yet scheduled
  };
  struct Harness {
    Simulator sim;
    Rng rng{20261019};
    std::uint64_t numbered = 0;  // mirrors the simulator's next number
    std::vector<Numbered> reference;
    std::vector<std::uint64_t> executed;
    std::deque<Series> series;  // stable addresses for pending captures

    void Direct(SimTime when, int depth) {
      const std::uint64_t id = numbered++;
      reference.push_back(Numbered{when, id, false});
      sim.ScheduleAt(when, [this, id, depth] { Fire(id, depth); });
    }
    void StartSeries(SimTime start) {
      Series& s = series.emplace_back();
      SimTime when = start;
      for (std::uint64_t i = 0, count = 1 + rng.NextBelow(8); i < count; ++i) {
        s.times.push_back(when);
        when += rng.NextBool(0.5) ? SimDuration{0} : DrawDelay(rng);
      }
      s.first = sim.ReserveSeqs(s.times.size());
      ASSERT_EQ(s.first, numbered) << "reservations share the direct numbering";
      for (std::size_t i = 0; i < s.times.size(); ++i) {
        reference.push_back(Numbered{s.times[i], s.first + i, true});
      }
      numbered += s.times.size();
      ScheduleNext(s);
    }
    void ScheduleNext(Series& s) {
      if (s.next == s.times.size()) {
        return;
      }
      const std::uint64_t id = s.first + s.next;
      sim.ScheduleAt(s.times[s.next++], id, [this, &s, id] {
        ScheduleNext(s);
        Fire(id, 1);
      });
    }
    void Fire(std::uint64_t id, int depth) {
      executed.push_back(id);
      if (depth >= 2) {
        return;
      }
      switch (rng.NextBelow(5)) {
        case 0:
          Direct(sim.Now(), depth + 1);
          break;
        case 1:
          Direct(sim.Now() + DrawDelay(rng), depth + 1);
          break;
        case 2:
          if (depth == 0) {
            StartSeries(sim.Now() + DrawDelay(rng));
          }
          break;
        default:
          break;
      }
    }
    void Root() {
      if (rng.NextBool(0.5)) {
        Direct(sim.Now() + DrawDelay(rng), 0);
      } else {
        StartSeries(sim.Now() + DrawDelay(rng));
      }
    }
    std::vector<Numbered> Sorted() const {
      std::vector<Numbered> sorted = reference;
      std::sort(sorted.begin(), sorted.end(), [](const Numbered& a, const Numbered& b) {
        return a.when != b.when ? a.when < b.when : a.id < b.id;
      });
      return sorted;
    }
    // Everything due by `deadline` ran, in (time, numbering) order.
    void ExpectDrainedTo(SimTime deadline) {
      const std::vector<Numbered> sorted = Sorted();
      const auto due = static_cast<std::size_t>(
          std::partition_point(sorted.begin(), sorted.end(),
                               [deadline](const Numbered& n) { return n.when <= deadline; }) -
          sorted.begin());
      ASSERT_EQ(executed.size(), due) << "deadline " << deadline.count() << "us";
      for (std::size_t i = 0; i < due; ++i) {
        ASSERT_EQ(executed[i], sorted[i].id) << "at position " << i;
      }
    }
  };

  Harness h;
  for (int i = 0; i < 20'000; ++i) {
    h.Root();
  }
  for (SimTime deadline : {Us(0), Ms(1), Ms(250), Sec(2.5), Sec(6.0)}) {
    EXPECT_FALSE(h.sim.RunUntil(deadline));
    h.ExpectDrainedTo(deadline);
    if (HasFatalFailure()) {
      return;
    }
    for (int i = 0; i < 1000; ++i) {
      h.Root();
    }
  }
  h.sim.Run();
  EXPECT_TRUE(h.sim.empty());
  h.ExpectDrainedTo(SimTime::max());
  // Same-instant neighbours of both kinds, in both numbering orders.
  const std::vector<Numbered> sorted = h.Sorted();
  std::size_t reserved_first = 0;
  std::size_t direct_first = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].when == sorted[i].when && sorted[i - 1].reserved != sorted[i].reserved) {
      ++(sorted[i - 1].reserved ? reserved_first : direct_first);
    }
  }
  EXPECT_GT(reserved_first, 100u);
  EXPECT_GT(direct_first, 100u);
}

// A move-only capture that counts its own destruction in `ledger[id]`;
// moved-from shells count nothing.
class CountedProbe {
 public:
  CountedProbe(std::vector<int>* ledger, std::size_t id) : ledger_(ledger), id_(id) {}
  CountedProbe(CountedProbe&& other) noexcept
      : ledger_(std::exchange(other.ledger_, nullptr)), id_(other.id_) {}
  CountedProbe(const CountedProbe&) = delete;
  CountedProbe& operator=(const CountedProbe&) = delete;
  CountedProbe& operator=(CountedProbe&&) = delete;
  ~CountedProbe() {
    if (ledger_ != nullptr) {
      ++(*ledger_)[id_];
    }
  }
  std::size_t id() const { return id_; }

 private:
  std::vector<int>* ledger_;
  std::size_t id_;
};

// Pending callables change hands inside the simulator as the queue grows,
// as slots are reused and as events run; whichever way each event leaves
// (run by RunUntil, run by Run before a Stop, or still pending when the
// simulator dies), its capture is destroyed exactly once and invoked at
// most once. While the simulator lives, a capture is destroyed exactly
// when its event has run: a pending one stays alive, and a finished one
// does not linger in its slot until the slot is reused.
TEST(Simulator, DestroysEveryPendingCallableExactlyOnce) {
  constexpr std::size_t kRoots = 6000;  // far past the queue's initial reservation
  std::vector<int> destroyed(2 * kRoots, 0);
  std::vector<int> invoked(2 * kRoots, 0);
  struct Harness {
    Simulator* sim;
    std::vector<int>* destroyed;
    std::vector<int>* invoked;
    std::size_t next_id = 0;

    void Schedule(SimTime when, bool spawn) {
      CountedProbe probe(destroyed, next_id++);
      if (probe.id() % 3 == 0) {
        // Too big for the inline buffer: takes InlineEvent's heap fallback.
        sim->ScheduleAt(when, [this, spawn, probe = std::move(probe),
                               pad = std::array<std::uint64_t, 8>{}] {
          Fire(probe.id() + pad[0], spawn);
        });
      } else {
        sim->ScheduleAt(when, [this, spawn, probe = std::move(probe)] {
          Fire(probe.id(), spawn);
        });
      }
    }
    void Fire(std::size_t id, bool spawn) {
      ++(*invoked)[id];
      if (spawn) {
        Schedule(sim->Now() + Us(static_cast<std::int64_t>(id % 7)), false);
      }
    }
  };

  std::size_t scheduled = 0;
  std::uint64_t executed = 0;
  std::size_t pending_at_destruction = 0;
  {
    Simulator sim;
    Harness h{&sim, &destroyed, &invoked};
    for (std::size_t i = 0; i < kRoots; ++i) {
      h.Schedule(Us(static_cast<std::int64_t>(i % 500) * 10), /*spawn=*/i % 2 == 0);
    }
    EXPECT_EQ(sim.pending_events(), kRoots);
    const auto expect_destroyed_iff_run = [&] {
      for (std::size_t id = 0; id < h.next_id; ++id) {
        ASSERT_EQ(destroyed[id], invoked[id]) << "capture " << id;
      }
    };
    EXPECT_FALSE(sim.RunUntil(Ms(1)));
    expect_destroyed_iff_run();
    sim.ScheduleAt(sim.Now() + Ms(1), [&sim] { sim.Stop(); });
    sim.Run();
    EXPECT_EQ(sim.Now(), Ms(2));
    EXPECT_FALSE(sim.empty());
    expect_destroyed_iff_run();
    scheduled = h.next_id;
    executed = sim.events_executed() - 1;  // less the Stop() event
    pending_at_destruction = sim.pending_events();
  }
  ASSERT_LE(scheduled, destroyed.size());
  std::uint64_t invoked_total = 0;
  std::size_t never_invoked = 0;
  for (std::size_t id = 0; id < scheduled; ++id) {
    EXPECT_EQ(destroyed[id], 1) << "capture " << id;
    EXPECT_LE(invoked[id], 1) << "capture " << id;
    invoked_total += static_cast<std::uint64_t>(invoked[id]);
    never_invoked += invoked[id] == 0 ? 1 : 0;
  }
  EXPECT_EQ(invoked_total, executed);
  EXPECT_EQ(never_invoked, pending_at_destruction);
  EXPECT_GT(pending_at_destruction, 0u);
}

TEST(SimulatorOrderingDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.ScheduleAt(Us(10), [] {});
  sim.Run();
  ASSERT_EQ(sim.Now(), Us(10));
  EXPECT_DEATH(sim.ScheduleAt(Us(5), [] {}), "scheduling into the past");
}

TEST(SimulatorOrderingDeathTest, SchedulingUnderAnUnreservedNumberAborts) {
  Simulator sim;
  const std::uint64_t first = sim.ReserveSeqs(2);
  sim.ScheduleAt(Us(1), [] {});  // takes the number after the reserved pair
  sim.ScheduleAt(Us(1), first + 1, [] {});
  EXPECT_DEATH(sim.ScheduleAt(Us(1), first + 3, [] {}), "unreserved sequence number");
}

TEST(InlineEvent, RunsSmallInlineCallable) {
  int hits = 0;
  InlineEvent event([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(event));
  event();
  EXPECT_EQ(hits, 1);
}

TEST(InlineEvent, HeapFallbackForOversizedCapture) {
  std::array<std::uint64_t, 16> payload{};  // 128 bytes > kInlineCapacity
  payload[0] = 7;
  payload[15] = 9;
  std::uint64_t sum = 0;
  InlineEvent event([payload, &sum] { sum = payload[0] + payload[15]; });
  event();
  EXPECT_EQ(sum, 16u);
}

TEST(InlineEvent, MoveTransfersTheCallable) {
  int hits = 0;
  InlineEvent a([&hits] { ++hits; });
  InlineEvent b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InlineEvent c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineEvent, MoveOnlyCaptureIsSupported) {
  auto value = std::make_unique<int>(41);
  int seen = 0;
  InlineEvent event([v = std::move(value), &seen] { seen = *v + 1; });
  InlineEvent moved(std::move(event));
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(InlineEvent, DestroysCaptureExactlyOnce) {
  std::vector<int> destroyed(1, 0);
  {
    InlineEvent event([probe = CountedProbe(&destroyed, 0)] { (void)probe; });
    InlineEvent moved(std::move(event));
    moved();
    EXPECT_EQ(destroyed[0], 0);
  }
  EXPECT_EQ(destroyed[0], 1);
}

TEST(InlineEvent, SimulatorAcceptsStdFunctionArguments) {
  // Call sites that still build a std::function first must keep working.
  Simulator sim;
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  sim.ScheduleAfter(Us(1), std::move(fn));
  sim.Run();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace accent
