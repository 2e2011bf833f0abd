#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

namespace accent {

namespace {
constexpr SimTime kNoEvent = SimTime::max();
}  // namespace

Simulator::Simulator() { queue_.reserve(kInitialQueueCapacity); }

void Simulator::ScheduleAt(SimTime when, InlineEvent fn) {
  ACCENT_CHECK(static_cast<bool>(fn)) << " scheduling an empty event";
  if (!shards_.empty()) {
    // Sharded mode: land on the executing shard — the same-host fast path.
    // Setup-time code must name its host via ScheduleAtHost instead.
    ACCENT_CHECK(running_ != nullptr)
        << " sharded ScheduleAt outside event execution; use ScheduleAtHost";
    Shard& shard = *running_;
    ACCENT_CHECK(when >= shard.now)
        << " scheduling into the past: when=" << when.count() << "us now="
        << shard.now.count() << "us";
    shard.queue.push_back(Event{when, shard.next_seq++, std::move(fn)});
    std::push_heap(shard.queue.begin(), shard.queue.end(), EventLater{});
    return;
  }
  ACCENT_CHECK(when >= now_) << " scheduling into the past: when=" << when.count()
                             << "us now=" << now_.count() << "us";
  queue_.push_back(Event{when, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
}

void Simulator::ConfigureShards(int shards, SimDuration lookahead) {
  ACCENT_EXPECTS(shards >= 1);
  ACCENT_EXPECTS(lookahead > SimDuration::zero())
      << " conservative windows need a positive lookahead";
  ACCENT_CHECK(shards_.empty()) << " ConfigureShards called twice";
  ACCENT_CHECK(queue_.empty() && events_executed_ == 0)
      << " configure shards before any event is scheduled or run";
  lookahead_ = lookahead;
  shards_.resize(static_cast<std::size_t>(shards));
  for (Shard& shard : shards_) {
    shard.queue.reserve(kInitialQueueCapacity);
  }
}

void Simulator::AssignHostShard(HostId host, int shard) {
  ACCENT_EXPECTS(host.valid());
  ACCENT_CHECK(!shards_.empty()) << " ConfigureShards first";
  ACCENT_CHECK(shard >= 0 && shard < shard_count())
      << " shard " << shard << " out of range";
  ACCENT_CHECK(running_ == nullptr) << " host assignment during window execution";
  auto [it, inserted] =
      host_slots_.emplace(host.value, HostSlot{shard, host_send_seq_.size()});
  ACCENT_CHECK(inserted) << " host " << host << " assigned twice";
  (void)it;
  host_send_seq_.push_back(0);
}

const Simulator::HostSlot& Simulator::SlotOf(HostId host) const {
  auto it = host_slots_.find(host.value);
  ACCENT_CHECK(it != host_slots_.end()) << " host " << host << " has no shard";
  return it->second;
}

int Simulator::shard_of_host(HostId host) const { return SlotOf(host).shard; }

void Simulator::ScheduleAtHost(HostId host, SimTime when, InlineEvent fn) {
  ACCENT_CHECK(static_cast<bool>(fn)) << " scheduling an empty event";
  if (shards_.empty()) {
    ScheduleAt(when, std::move(fn));
    return;
  }
  ACCENT_CHECK(running_ == nullptr)
      << " ScheduleAtHost during window execution; events self-schedule with "
         "ScheduleAt and reach peers through ScheduleCross";
  Shard& shard = shards_[static_cast<std::size_t>(SlotOf(host).shard)];
  ACCENT_CHECK(when >= shard.now) << " scheduling into the past";
  shard.queue.push_back(Event{when, shard.next_seq++, std::move(fn)});
  std::push_heap(shard.queue.begin(), shard.queue.end(), EventLater{});
}

void Simulator::ScheduleCross(HostId from, HostId to, SimTime when, InlineEvent fn) {
  ACCENT_CHECK(static_cast<bool>(fn)) << " scheduling an empty event";
  if (shards_.empty()) {
    ScheduleAt(when, std::move(fn));
    return;
  }
  const HostSlot& src = SlotOf(from);
  const HostSlot& dst = SlotOf(to);
  if (running_ != nullptr) {
    // The conservative-window safety contract: an in-window send may not
    // arrive before the next barrier, or the destination shard could have
    // run past it. Wire latencies >= lookahead guarantee this.
    ACCENT_CHECK(when >= running_->now + lookahead_)
        << " cross-shard event inside the lookahead window: when="
        << when.count() << "us now=" << running_->now.count()
        << "us lookahead=" << lookahead_.count() << "us";
    ACCENT_CHECK(&shards_[static_cast<std::size_t>(src.shard)] == running_)
        << " cross-shard send from host " << from
        << " outside its owning shard";
  }
  // The canonical merge key: the source host's own send order.
  const std::uint64_t src_seq = host_send_seq_[src.index]++;
  shards_[static_cast<std::size_t>(dst.shard)].inbox.push_back(
      CrossEvent{when, from.value, src_seq, std::move(fn)});
}

void Simulator::RunOne() {
  // The event must be popped before running: the callback may schedule.
  std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  now_ = event.when;
  ++events_executed_;
  // Dispatch instants are high-volume, so they are gated behind verbose
  // mode on top of the usual null check; the common path costs one branch.
  if (tracer_ != nullptr && tracer_->verbose()) {
    tracer_->KernelInstant("sim:dispatch", now_,
                           {{"seq", Json(event.seq)},
                            {"pending", Json(static_cast<std::uint64_t>(
                                            queue_.size()))}});
  }
  event.fn();
}

void Simulator::RunShardWindow(Shard* shard, SimTime end_exclusive) {
  running_ = shard;
  std::vector<Event>& queue = shard->queue;
  while (!queue.empty() && queue.front().when < end_exclusive && !stopped_) {
    std::pop_heap(queue.begin(), queue.end(), EventLater{});
    Event event = std::move(queue.back());
    queue.pop_back();
    shard->now = event.when;
    ++shard->executed;
    event.fn();
  }
  running_ = nullptr;
}

void Simulator::DrainInbox(Shard* shard) {
  drain_scratch_.clear();
  drain_scratch_.swap(shard->inbox);
  // Canonical merge order: arrival time, then source host, then the
  // source's own send order. This depends only on each host's execution
  // history, so the merged schedule is identical for every shard count —
  // the determinism contract of the whole engine.
  std::sort(drain_scratch_.begin(), drain_scratch_.end(),
            [](const CrossEvent& a, const CrossEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src_host != b.src_host) return a.src_host < b.src_host;
              return a.src_seq < b.src_seq;
            });
  for (CrossEvent& cross : drain_scratch_) {
    ACCENT_CHECK(cross.when >= shard->now)
        << " cross-shard event arrived in this shard's past (lookahead too "
           "large for the link latency?)";
    shard->queue.push_back(Event{cross.when, shard->next_seq++, std::move(cross.fn)});
    std::push_heap(shard->queue.begin(), shard->queue.end(), EventLater{});
  }
  drain_scratch_.clear();
}

bool Simulator::RunWindowed(bool bounded, SimTime deadline) {
  ACCENT_CHECK(running_ == nullptr) << " nested sharded run";
  stopped_ = false;
  for (;;) {
    for (Shard& shard : shards_) {
      DrainInbox(&shard);
    }
    SimTime next = kNoEvent;
    for (const Shard& shard : shards_) {
      if (!shard.queue.empty() && shard.queue.front().when < next) {
        next = shard.queue.front().when;
      }
    }
    if (next == kNoEvent) {
      if (bounded) {
        if (now_ < deadline) {
          now_ = deadline;
        }
      } else {
        for (const Shard& shard : shards_) {
          now_ = std::max(now_, shard.now);
        }
      }
      return true;  // drained
    }
    if (bounded && next > deadline) {
      now_ = deadline;
      return false;
    }
    now_ = next;
    SimTime end = next + lookahead_;
    if (bounded && end > deadline) {
      // Events at exactly `deadline` still run (end bound is exclusive).
      end = deadline + SimDuration{1};
    }
    if (tracer_ != nullptr && tracer_->verbose()) {
      tracer_->KernelInstant(
          "shard:window", now_,
          {{"end_us", Json(end.count())},
           {"shards", Json(static_cast<std::uint64_t>(shards_.size()))}});
    }
    for (Shard& shard : shards_) {
      if (!shard.queue.empty() && shard.queue.front().when < end) {
        RunShardWindow(&shard, end);
      }
    }
    if (stopped_) {
      return pending_events() == 0;
    }
  }
}

std::uint64_t Simulator::Run() {
  const std::uint64_t start = events_executed();
  if (!shards_.empty()) {
    RunWindowed(/*bounded=*/false, SimTime{0});
    return events_executed() - start;
  }
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    RunOne();
  }
  return events_executed_ - start;
}

bool Simulator::RunUntil(SimTime deadline) {
  if (!shards_.empty()) {
    return RunWindowed(/*bounded=*/true, deadline);
  }
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    if (queue_.front().when > deadline) {
      now_ = deadline;
      return false;
    }
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return queue_.empty();
}

std::size_t Simulator::pending_events() const {
  std::size_t pending = queue_.size();
  for (const Shard& shard : shards_) {
    pending += shard.queue.size() + shard.inbox.size();
  }
  return pending;
}

std::vector<std::size_t> Simulator::PendingEventsByShard() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    counts.push_back(shard.queue.size() + shard.inbox.size());
  }
  return counts;
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t total = events_executed_;
  for (const Shard& shard : shards_) {
    total += shard.executed;
  }
  return total;
}

std::vector<SimTime> Simulator::PendingEventTimes(std::size_t limit) const {
  std::vector<SimTime> times;
  times.reserve(pending_events());
  for (const Event& event : queue_) {
    times.push_back(event.when);
  }
  for (const Shard& shard : shards_) {
    for (const Event& event : shard.queue) {
      times.push_back(event.when);
    }
    for (const CrossEvent& cross : shard.inbox) {
      times.push_back(cross.when);
    }
  }
  std::sort(times.begin(), times.end());
  if (times.size() > limit) {
    times.resize(limit);
  }
  return times;
}

}  // namespace accent
