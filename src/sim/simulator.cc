#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

namespace accent {

Simulator::Simulator() { queue_.reserve(kInitialQueueCapacity); }

void Simulator::ScheduleAt(SimTime when, InlineEvent fn) {
  ACCENT_CHECK(static_cast<bool>(fn)) << " scheduling an empty event";
  ACCENT_CHECK(when >= now_) << " scheduling into the past: when=" << when.count()
                             << "us now=" << now_.count() << "us";
  queue_.push_back(Event{when, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
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
  if (now_ < deadline) {
    now_ = deadline;
  }
  return queue_.empty();
}

std::vector<SimTime> Simulator::PendingEventTimes(std::size_t limit) const {
  std::vector<SimTime> times;
  times.reserve(queue_.size());
  for (const Event& event : queue_) {
    times.push_back(event.when);
  }
  std::sort(times.begin(), times.end());
  if (times.size() > limit) {
    times.resize(limit);
  }
  return times;
}

}  // namespace accent
