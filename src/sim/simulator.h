// Discrete-event simulation kernel.
//
// All "concurrency" in the reproduced system — processes executing, pagers
// servicing faults, NetMsgServers shipping fragments, wires serialising
// bytes — is expressed as events on a priority queue ordered by simulated
// time. Events scheduled for the same instant run in FIFO order, which
// keeps trials deterministic. One queue serves every simulation: the
// two-host testbeds, the sweeps and the fleet-scale cluster trials.
//
// Same-instant order is sequence-number order, and an event normally takes
// the next number when it is scheduled. A caller that knows a series of
// future events can instead reserve their numbers up front (ReserveSeqs)
// and schedule each event later under its own number. It then runs exactly
// where it would have run had it been scheduled at the reservation, as long
// as it is queued before anything that sorts after it runs. A series at
// non-decreasing times meets that by queueing each event as its predecessor
// fires, and the queue holds only the series' next event. The fleet keeps
// its arrivals, ticks and slices this way (src/experiments/cluster.cc).
//
// Hot-path notes: the queue is a 4-ary min-heap of 24-byte keys
// {when, seq, slot}; sifting moves only keys. Each key's callable, a
// small-buffer-optimised InlineEvent (not a heap-allocated std::function),
// sits in a slab slot that does not move while the event is pending. Freed
// slots are reused last-in first-out, so an event that schedules its
// successor hands over its own, still-cached slot. All three vectors keep
// their storage across pops, so steady-state scheduling performs no
// allocation.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
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

  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute simulated time `when` (>= Now()). Accepts any
  // void() callable; small captures are stored inline (see event.h).
  void ScheduleAt(SimTime when, InlineEvent fn);

  // Reserves `count` consecutive sequence numbers and returns the first.
  // Each must later be used by at most one ScheduleAt(when, seq, fn) call.
  std::uint64_t ReserveSeqs(std::uint64_t count) {
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  // Schedules `fn` at `when` (>= Now()) under `seq`, a number ReserveSeqs
  // handed out: among events at `when` it runs where an event scheduled at
  // the reservation would have run.
  void ScheduleAt(SimTime when, std::uint64_t seq, InlineEvent fn);

  // Schedules `fn` after `delay` of simulated time.
  void ScheduleAfter(SimDuration delay, InlineEvent fn) {
    ScheduleAt(Now() + delay, std::move(fn));
  }

  // Runs until the event queue drains or Stop() is called. Returns the
  // number of events executed.
  std::uint64_t Run();

  // Runs until `deadline`; events at exactly `deadline` are executed, and
  // the clock then reads `deadline`. If a callback calls Stop(), returns
  // after that event with the clock at its time. Returns true if the queue
  // drained.
  bool RunUntil(SimTime deadline);

  // Makes Run() or RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  bool empty() const { return queue_.empty(); }

  std::size_t pending_events() const { return queue_.size(); }

  // Scheduled times of up to `limit` earliest pending events, ascending.
  // Diagnostic surface for watchdogs: a stuck simulation dumps what it was
  // still waiting on instead of timing out silently.
  std::vector<SimTime> PendingEventTimes(std::size_t limit) const;

  std::uint64_t events_executed() const { return events_executed_; }

  // Process/port/segment id allocator (ids are unique per simulation).
  std::uint64_t AllocateId() { return ++last_id_; }

  // Optional observability hook. The simulator does not own the tracer;
  // callers must keep it alive for the simulation's lifetime. Instrumented
  // subsystems reach it through here (sim.tracer()), so one assignment
  // enables tracing everywhere. Null (the default) disables all recording.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  static constexpr std::size_t kInitialQueueCapacity = 1024;

  // A pending event's place in the queue: its time, its scheduling order
  // and the slab slot holding its callable.
  struct Key {
    SimTime when{0};
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  // Earliest first; ties broken by sequence number for same-instant FIFO
  // order. Sequence numbers are unique, so this is a strict total order and
  // any correct min-queue pops events in the same sequence.
  static bool Earlier(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  void Push(SimTime when, std::uint64_t seq, InlineEvent&& fn);
  void SiftUp(std::size_t hole, Key key);
  void SiftDown(Key key);
  void RunOne();

  // 4-ary min-heap: the root is the earliest event, node i's children are
  // 4i+1 .. 4i+4.
  std::vector<Key> queue_;
  // Callables of pending events, indexed by Key::slot; a free slot holds an
  // empty InlineEvent.
  std::vector<InlineEvent> slots_;
  std::vector<std::uint32_t> free_slots_;  // LIFO
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_id_ = 0;
  std::uint64_t events_executed_ = 0;
  bool stopped_ = false;
  Tracer* tracer_ = nullptr;  // not owned
};

}  // namespace accent

#endif  // SRC_SIM_SIMULATOR_H_
