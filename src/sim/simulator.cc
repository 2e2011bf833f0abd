#include "src/sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace accent {
namespace {

constexpr std::size_t kArity = 4;

}  // namespace

Simulator::Simulator() {
  queue_.reserve(kInitialQueueCapacity);
  slots_.reserve(kInitialQueueCapacity);
  free_slots_.reserve(kInitialQueueCapacity);
}

void Simulator::Push(SimTime when, std::uint64_t seq, InlineEvent&& fn) {
  ACCENT_CHECK(static_cast<bool>(fn)) << " scheduling an empty event";
  ACCENT_CHECK(when >= now_) << " scheduling into the past: when=" << when.count()
                             << "us now=" << now_.count() << "us";
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    ACCENT_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max())
        << " event slab full: " << slots_.size() << " events pending";
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  queue_.emplace_back();
  SiftUp(queue_.size() - 1, Key{when, seq, slot});
}

void Simulator::ScheduleAt(SimTime when, InlineEvent fn) {
  Push(when, next_seq_++, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, std::uint64_t seq, InlineEvent fn) {
  ACCENT_CHECK(seq < next_seq_) << " scheduling under an unreserved sequence number: seq="
                                << seq << " next=" << next_seq_;
  Push(when, seq, std::move(fn));
}

// Moves parents down into the hole at `hole` until `key` fits there.
void Simulator::SiftUp(std::size_t hole, Key key) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!Earlier(key, queue_[parent])) {
      break;
    }
    queue_[hole] = queue_[parent];
    hole = parent;
  }
  queue_[hole] = key;
}

// Refills the hole at the root: moves the earliest child up until `key`
// is no later than every child below the hole.
void Simulator::SiftDown(Key key) {
  const std::size_t size = queue_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) {
      break;
    }
    const std::size_t end = std::min(first + kArity, size);
    std::size_t earliest = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (Earlier(queue_[child], queue_[earliest])) {
        earliest = child;
      }
    }
    if (!Earlier(queue_[earliest], key)) {
      break;
    }
    queue_[hole] = queue_[earliest];
    hole = earliest;
  }
  queue_[hole] = key;
}

void Simulator::RunOne() {
  const Key top = queue_.front();
  const Key last = queue_.back();
  queue_.pop_back();
  if (!queue_.empty()) {
    SiftDown(last);
  }
  // The callable leaves its slot before it runs: the callback may schedule,
  // and a new slot can grow (and so move) the slab.
  InlineEvent fn = std::move(slots_[top.slot]);
  free_slots_.push_back(top.slot);
  now_ = top.when;
  ++events_executed_;
  // Dispatch instants are high-volume, so they are gated behind verbose
  // mode on top of the usual null check; the common path costs one branch.
  if (tracer_ != nullptr && tracer_->verbose()) {
    tracer_->KernelInstant("sim:dispatch", now_,
                           {{"seq", Json(top.seq)},
                            {"pending", Json(static_cast<std::uint64_t>(
                                            queue_.size()))}});
  }
  fn();
}

std::uint64_t Simulator::Run() {
  const std::uint64_t start = events_executed_;
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    RunOne();
  }
  return events_executed_ - start;
}

bool Simulator::RunUntil(SimTime deadline) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    if (queue_.front().when > deadline) {
      now_ = deadline;
      return false;
    }
    RunOne();
  }
  // After a Stop() the clock stays at the stopping event: events before the
  // deadline may still be pending.
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return queue_.empty();
}

std::vector<SimTime> Simulator::PendingEventTimes(std::size_t limit) const {
  std::vector<SimTime> times;
  times.reserve(queue_.size());
  for (const Key& key : queue_) {
    times.push_back(key.when);
  }
  std::sort(times.begin(), times.end());
  if (times.size() > limit) {
    times.resize(limit);
  }
  return times;
}

}  // namespace accent
