// Discrete-event simulation kernel.
//
// All "concurrency" in the reproduced system — processes executing, pagers
// servicing faults, NetMsgServers shipping fragments, wires serialising
// bytes — is expressed as events on a priority queue ordered by simulated
// time. Events scheduled for the same instant run in FIFO order, which
// keeps trials deterministic.
//
// Two execution modes share this class:
//
//  * Serial (the default, and the only mode unless ConfigureShards() is
//    called): one global queue, exactly the original engine. Every
//    existing testbed, sweep and golden digest runs through this path
//    unchanged.
//
//  * Sharded (fleet-scale cluster trials): the queue is split into
//    per-shard queues, each owning a disjoint set of hosts, executed with
//    conservative time-window barriers (classic conservative discrete-event
//    simulation). The only cross-shard edges are network arrivals, and
//    every link has a nonzero minimum latency L (the lookahead), so each
//    shard may safely run ahead to window_start + L before exchanging
//    cross-shard events at a barrier. Every window runs on the caller's
//    thread, due shards in index order. Cross-shard events travel through
//    per-shard inboxes and are merged in a canonical order — (arrival
//    time, source host, per-source sequence) — so the executed schedule,
//    and therefore every simulation result, is bit-identical for any shard
//    count. Same-shard dispatch keeps the InlineEvent fast path untouched.
//
// Hot-path notes: each queue is a binary heap laid out in a std::vector
// whose storage is reserved up front and retained across pops, and each
// event carries a small-buffer-optimised InlineEvent instead of a
// heap-allocated std::function, so steady-state scheduling performs no
// allocation. Sharding also shrinks each heap by the shard count, which
// cuts the per-event sift cost (O(log n/K)).
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/check.h"
#include "src/base/types.h"
#include "src/sim/event.h"
#include "src/trace/trace.h"

namespace accent {

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time: the executing shard's clock from inside a
  // sharded event, the global clock otherwise.
  SimTime Now() const { return running_ != nullptr ? running_->now : now_; }

  // Schedules `fn` at absolute simulated time `when` (>= Now()). Accepts any
  // void() callable; small captures are stored inline (see event.h). In
  // sharded mode this must be called from inside an executing event and
  // lands on the calling shard (the same-host fast path); use
  // ScheduleAtHost for setup-time scheduling.
  void ScheduleAt(SimTime when, InlineEvent fn);

  // Schedules `fn` after `delay` of simulated time.
  void ScheduleAfter(SimDuration delay, InlineEvent fn) {
    ScheduleAt(Now() + delay, std::move(fn));
  }

  // --- sharded mode ------------------------------------------------------
  // Splits the event loop into `shards` queues with conservative windows of
  // `lookahead` (must be <= the minimum cross-host link latency). Call once,
  // before any event is scheduled. shards == 1 still switches to the
  // windowed engine — that is the cluster baseline — but the classic serial
  // loop is used whenever ConfigureShards was never called.
  void ConfigureShards(int shards, SimDuration lookahead);

  // Maps a host onto a shard (0 <= shard < shard_count). Every host that
  // schedules or receives cross-host events must be assigned before Run.
  void AssignHostShard(HostId host, int shard);

  // Setup-time scheduling onto `host`'s shard. Must not be called while a
  // shard window is executing (events self-schedule with ScheduleAt).
  void ScheduleAtHost(HostId host, SimTime when, InlineEvent fn);

  // Cross-host event edge (network arrivals). In serial mode this is
  // ScheduleAt. In sharded mode the event lands in the destination shard's
  // inbox and is merged at the next barrier in canonical order — callers
  // must guarantee when >= Now() + lookahead, which a wire latency >=
  // lookahead provides by construction.
  void ScheduleCross(HostId from, HostId to, SimTime when, InlineEvent fn);

  bool sharded() const { return !shards_.empty(); }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  SimDuration lookahead() const { return lookahead_; }
  int shard_of_host(HostId host) const;

  // ------------------------------------------------------------------------

  // Runs until the event queue(s) drain or Stop() is called. Returns the
  // number of events executed.
  std::uint64_t Run();

  // Runs until `deadline`; events at exactly `deadline` are executed.
  // Returns true if the queue(s) drained before the deadline.
  bool RunUntil(SimTime deadline);

  // Makes Run() return after the current event completes (serial mode) or
  // at the next window barrier (sharded mode).
  void Stop() { stopped_ = true; }

  bool empty() const {
    if (shards_.empty()) {
      return queue_.empty();
    }
    return pending_events() == 0;
  }

  // Pending events across the serial queue, every shard queue and every
  // cross-shard inbox, so watchdogs see the whole fleet: a hung shard must
  // still trip the guard.
  std::size_t pending_events() const;

  // Pending events per shard (queue + inbox), index-aligned with shard ids.
  // Empty in serial mode. Diagnostic surface for watchdog dumps.
  std::vector<std::size_t> PendingEventsByShard() const;

  // Scheduled times of up to `limit` earliest pending events, ascending,
  // merged across all shards and inboxes. Diagnostic surface for
  // watchdogs: a stuck simulation dumps what it was still waiting on
  // instead of timing out silently.
  std::vector<SimTime> PendingEventTimes(std::size_t limit) const;

  std::uint64_t events_executed() const;

  // Process/port/segment id allocator (ids are unique per simulation).
  // Serial-mode (and setup-time) only: allocation order inside shard
  // windows follows the shard layout, so ids would differ across shard
  // counts.
  std::uint64_t AllocateId() { return ++last_id_; }

  // Optional observability hook. The simulator does not own the tracer;
  // callers must keep it alive for the simulation's lifetime. Instrumented
  // subsystems reach it through here (sim.tracer()), so one assignment
  // enables tracing everywhere. Null (the default) disables all recording.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  static constexpr std::size_t kInitialQueueCapacity = 1024;

  struct Event {
    SimTime when;
    std::uint64_t seq;
    InlineEvent fn;
  };
  // Heap comparator: the "largest" element (heap top) is the earliest event;
  // ties broken by sequence number for same-instant FIFO order.
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // A cross-shard event parked in the destination shard's inbox until the
  // next barrier. The (when, src_host, src_seq) key is the canonical merge
  // order: it depends only on each source host's own execution history,
  // never on shard layout.
  struct CrossEvent {
    SimTime when;
    std::uint64_t src_host;
    std::uint64_t src_seq;
    InlineEvent fn;
  };

  struct Shard {
    std::vector<Event> queue;  // binary heap, same discipline as queue_
    SimTime now{0};
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    std::vector<CrossEvent> inbox;
  };

  struct HostSlot {
    int shard = 0;
    std::size_t index = 0;  // dense index into host_send_seq_
  };

  void RunOne();
  bool RunWindowed(bool bounded, SimTime deadline);
  void RunShardWindow(Shard* shard, SimTime end_exclusive);
  void DrainInbox(Shard* shard);
  const HostSlot& SlotOf(HostId host) const;

  // Binary heap over queue_ (std::push_heap/pop_heap with EventLater).
  std::vector<Event> queue_;
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_id_ = 0;
  std::uint64_t events_executed_ = 0;
  bool stopped_ = false;
  Tracer* tracer_ = nullptr;  // not owned

  // Sharded mode (empty vectors/maps in serial mode). shards_ is sized once
  // by ConfigureShards, so pointers into it stay valid.
  std::vector<Shard> shards_;
  // The shard whose window is executing; null outside window execution
  // (and always in serial mode).
  Shard* running_ = nullptr;
  SimDuration lookahead_{0};
  std::unordered_map<std::uint64_t, HostSlot> host_slots_;
  // Per-source-host cross-send counters; written only by the owning shard.
  std::vector<std::uint64_t> host_send_seq_;
  std::vector<CrossEvent> drain_scratch_;
};

}  // namespace accent

#endif  // SRC_SIM_SIMULATOR_H_
