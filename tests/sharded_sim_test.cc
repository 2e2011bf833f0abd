// Semantics of the sharded (conservative-window) simulator engine:
// configuration, host-shard assignment, the three scheduling entry points
// (ScheduleAt from inside events, ScheduleAtHost at setup, ScheduleCross
// for network edges), canonical cross-shard merge order, the per-shard
// clock, partial drains under RunUntil, Stop at window barriers, the
// watchdog introspection surface (pending_events / PendingEventsByShard /
// PendingEventTimes), the lookahead safety contract, and that every window
// runs on the caller's thread, traced or not. The headline determinism
// claim — identical execution for every shard count — is asserted here on
// a ping-pong microkernel and again, full-stack, in tests/cluster_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/base/types.h"
#include "src/sim/simulator.h"
#include "src/trace/trace.h"

namespace accent {
namespace {

constexpr SimDuration kLookahead = Ms(4);

using RingLog = std::vector<std::vector<SimTime>>;

// Four hosts pass a token around the ring via ScheduleCross, 40 hops in
// all; each host logs its local receive times. `threads`, when given,
// records the thread every hop ran on.
RingLog RunRing(Simulator& sim, int shards, std::vector<std::thread::id>* threads = nullptr) {
  sim.ConfigureShards(shards, kLookahead);
  const int kHosts = 4;
  for (int h = 1; h <= kHosts; ++h) {
    sim.AssignHostShard(HostId(static_cast<std::uint64_t>(h)), (h - 1) % shards);
  }
  RingLog log(kHosts + 1);
  struct Ring {
    Simulator* sim;
    RingLog* log;
    std::vector<std::thread::id>* threads;
    int hops_left;
  } ring{&sim, &log, threads, 40};
  // InlineEvent capture: one pointer, recursion through a function ptr.
  struct Hop {
    static void At(Ring* ring, int host) {
      (*ring->log)[static_cast<std::size_t>(host)].push_back(ring->sim->Now());
      if (ring->threads != nullptr) {
        ring->threads->push_back(std::this_thread::get_id());
      }
      if (--ring->hops_left == 0) {
        return;
      }
      const int next = host % 4 + 1;
      ring->sim->ScheduleCross(HostId(static_cast<std::uint64_t>(host)),
                               HostId(static_cast<std::uint64_t>(next)),
                               ring->sim->Now() + kLookahead,
                               [ring, next] { Hop::At(ring, next); });
    }
  };
  sim.ScheduleAtHost(HostId(1), Ms(1), [&ring] { Hop::At(&ring, 1); });
  sim.Run();
  return log;
}

TEST(ShardedSim, SerialUnlessConfigured) {
  Simulator sim;
  EXPECT_FALSE(sim.sharded());
  EXPECT_EQ(sim.shard_count(), 0);
  int runs = 0;
  sim.ScheduleAt(Ms(1), [&runs] { ++runs; });
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(runs, 1);
}

TEST(ShardedSim, ConfigureAndAssign) {
  Simulator sim;
  sim.ConfigureShards(3, kLookahead);
  EXPECT_TRUE(sim.sharded());
  EXPECT_EQ(sim.shard_count(), 3);
  EXPECT_EQ(sim.lookahead(), kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 2);
  EXPECT_EQ(sim.shard_of_host(HostId(1)), 0);
  EXPECT_EQ(sim.shard_of_host(HostId(2)), 2);
}

TEST(ShardedSim, PerShardClockInsideEvents) {
  Simulator sim;
  sim.ConfigureShards(2, kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 1);
  std::vector<SimTime> observed;
  sim.ScheduleAtHost(HostId(1), Ms(1), [&] { observed.push_back(sim.Now()); });
  sim.ScheduleAtHost(HostId(2), Ms(2), [&] { observed.push_back(sim.Now()); });
  sim.ScheduleAtHost(HostId(1), Ms(9), [&] { observed.push_back(sim.Now()); });
  EXPECT_EQ(sim.Run(), 3u);
  ASSERT_EQ(observed.size(), 3u);
  // Both t=1ms and t=2ms fall in the first window; shard 0 runs first, so
  // the recording order is per-shard, but every event sees its own time.
  EXPECT_EQ(observed[0], Ms(1));
  EXPECT_EQ(observed[1], Ms(2));
  EXPECT_EQ(observed[2], Ms(9));
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_TRUE(sim.empty());
}

TEST(ShardedSim, SelfSchedulingStaysOnShard) {
  Simulator sim;
  sim.ConfigureShards(2, kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 1);
  int chain = 0;
  sim.ScheduleAtHost(HostId(1), Ms(1), [&] {
    ++chain;
    sim.ScheduleAfter(Ms(1), [&] {
      ++chain;
      sim.ScheduleAfter(Ms(10), [&] { ++chain; });  // crosses a window barrier
    });
  });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(chain, 3);
}

TEST(ShardedSim, CrossShardMergeOrderIsCanonical) {
  // Hosts 1 and 2 live on different shards and both send host 3 an event
  // arriving at the same instant. Delivery order at host 3 must be source
  // host, then the source's own send order — never shard layout or
  // execution interleaving.
  for (int shards : {1, 2, 3}) {
    Simulator sim;
    sim.ConfigureShards(shards, kLookahead);
    sim.AssignHostShard(HostId(1), 0);
    sim.AssignHostShard(HostId(2), shards > 1 ? 1 : 0);
    sim.AssignHostShard(HostId(3), shards > 2 ? 2 : 0);
    std::vector<std::string> delivered;
    const SimTime arrival = Ms(10);
    // Host 2's sends happen first in wall-clock setup order; host 1 still
    // delivers first because the merge key leads with the source host.
    sim.ScheduleAtHost(HostId(2), Ms(1), [&] {
      sim.ScheduleCross(HostId(2), HostId(3), arrival,
                        [&] { delivered.push_back("b0"); });
      sim.ScheduleCross(HostId(2), HostId(3), arrival,
                        [&] { delivered.push_back("b1"); });
    });
    sim.ScheduleAtHost(HostId(1), Ms(2), [&] {
      sim.ScheduleCross(HostId(1), HostId(3), arrival,
                        [&] { delivered.push_back("a0"); });
    });
    sim.Run();
    ASSERT_EQ(delivered.size(), 3u) << "shards=" << shards;
    EXPECT_EQ(delivered[0], "a0") << "shards=" << shards;
    EXPECT_EQ(delivered[1], "b0") << "shards=" << shards;
    EXPECT_EQ(delivered[2], "b1") << "shards=" << shards;
  }
}

TEST(ShardedSim, SetupTimeCrossSendsAreAllowed) {
  Simulator sim;
  sim.ConfigureShards(2, kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 1);
  int runs = 0;
  sim.ScheduleCross(HostId(1), HostId(2), Ms(5), [&runs] { ++runs; });
  EXPECT_EQ(sim.pending_events(), 1u);  // parked in the inbox, still counted
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(runs, 1);
}

TEST(ShardedSim, RunUntilPartialDrain) {
  Simulator sim;
  sim.ConfigureShards(2, kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 1);
  int runs = 0;
  sim.ScheduleAtHost(HostId(1), Ms(10), [&runs] { ++runs; });
  sim.ScheduleAtHost(HostId(2), Ms(50), [&runs] { ++runs; });
  EXPECT_FALSE(sim.RunUntil(Ms(20)));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.Now(), Ms(20));  // clock parks at the deadline between runs
  // Events at exactly the deadline still execute.
  EXPECT_TRUE(sim.RunUntil(Ms(50)));
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(sim.empty());
}

TEST(ShardedSim, StopTakesEffectAtTheNextBarrier) {
  Simulator sim;
  sim.ConfigureShards(2, kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 1);
  int runs = 0;
  sim.ScheduleAtHost(HostId(1), Ms(1), [&] {
    ++runs;
    sim.Stop();
  });
  sim.ScheduleAtHost(HostId(2), Ms(40), [&runs] { ++runs; });  // later window
  sim.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.empty());
}

TEST(ShardedSim, WatchdogIntrospectionSeesEveryShardAndInbox) {
  Simulator sim;
  sim.ConfigureShards(2, kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 1);
  sim.ScheduleAtHost(HostId(1), Ms(3), [] {});
  sim.ScheduleAtHost(HostId(2), Ms(1), [] {});
  sim.ScheduleAtHost(HostId(2), Ms(7), [] {});
  sim.ScheduleCross(HostId(1), HostId(2), Ms(5), [] {});  // inbox-parked
  EXPECT_EQ(sim.pending_events(), 4u);
  const std::vector<std::size_t> by_shard = sim.PendingEventsByShard();
  ASSERT_EQ(by_shard.size(), 2u);
  EXPECT_EQ(by_shard[0], 1u);
  EXPECT_EQ(by_shard[1], 3u);  // two queued + one inbox
  const std::vector<SimTime> times = sim.PendingEventTimes(3);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], Ms(1));
  EXPECT_EQ(times[1], Ms(3));
  EXPECT_EQ(times[2], Ms(5));
}

TEST(ShardedSim, PingPongScheduleIsIdenticalForEveryShardCount) {
  // The per-host traces must be identical whether the ring shares one shard
  // or is split across four.
  auto run = [](int shards) {
    Simulator sim;
    return RunRing(sim, shards);
  };
  const RingLog baseline = run(1);
  EXPECT_EQ(run(2), baseline);
  EXPECT_EQ(run(4), baseline);
}

TEST(ShardedSim, WindowsRunOnTheCallingThread) {
  Simulator sim;
  std::vector<std::thread::id> threads;
  RunRing(sim, 4, &threads);
  ASSERT_EQ(threads.size(), 40u);
  for (const std::thread::id& id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ShardedSim, TracedShardedRunRecordsWindows) {
  Simulator untraced;
  const RingLog baseline = RunRing(untraced, 2);

  Tracer tracer;
  tracer.set_verbose(true);
  Simulator traced;
  traced.set_tracer(&tracer);
  EXPECT_EQ(RunRing(traced, 2), baseline);
  EXPECT_EQ(traced.events_executed(), untraced.events_executed());

  std::size_t windows = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.name == "shard:window") {
      ++windows;
    }
  }
  EXPECT_GT(windows, 0u);
}

TEST(ShardedSimDeath, LookaheadViolationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.ConfigureShards(2, kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 1);
  sim.ScheduleAtHost(HostId(1), Ms(1), [&sim] {
    // Arrival inside the current conservative window: the destination shard
    // may already have run past it, so this must abort loudly.
    sim.ScheduleCross(HostId(1), HostId(2), sim.Now() + kLookahead - Us(1), [] {});
  });
  EXPECT_DEATH(sim.Run(), "inside the lookahead window");
}

TEST(ShardedSimDeath, SetupEntryPointsRejectMisuse) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.ConfigureShards(2, kLookahead);
  sim.AssignHostShard(HostId(1), 0);
  sim.AssignHostShard(HostId(2), 1);
  // Sharded ScheduleAt has no shard to land on outside event execution.
  EXPECT_DEATH(sim.ScheduleAt(Ms(1), [] {}), "use ScheduleAtHost");
  // ScheduleAtHost is setup-only; events must self-schedule.
  sim.ScheduleAtHost(HostId(1), Ms(1), [&sim] {
    sim.ScheduleAtHost(HostId(1), Ms(2), [] {});
  });
  EXPECT_DEATH(sim.Run(), "ScheduleAtHost during window execution");
}

}  // namespace
}  // namespace accent
