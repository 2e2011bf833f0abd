#include "src/net/network.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace accent {

void Network::ConfigureSwitched(int host_count) {
  ACCENT_EXPECTS(host_count >= 1);
  ACCENT_CHECK(fault_ == nullptr)
      << " the switched fabric models a reliable datacenter row";
  ACCENT_CHECK(transmissions() == 0) << " switch wire models before traffic";
  model_ = WireModel::kSwitched;
  egress_busy_until_.assign(static_cast<std::size_t>(host_count), SimTime{0});
}

void Network::SetHostCalibrations(const std::vector<HostCalibration>& calibrations) {
  ACCENT_CHECK(transmissions() == 0) << " calibrate links before traffic";
  if (!AnyCalibrated(calibrations)) {
    // Identity everywhere: leave calibrated_ false so Transmit keeps the
    // original arithmetic, expression for expression.
    calibrated_ = false;
    egress_bytes_per_sec_.clear();
    egress_latency_.clear();
    return;
  }
  calibrated_ = true;
  egress_bytes_per_sec_.resize(calibrations.size());
  egress_latency_.resize(calibrations.size());
  for (std::size_t i = 0; i < calibrations.size(); ++i) {
    calibrations[i].Validate();
    egress_bytes_per_sec_[i] =
        costs_.wire_bytes_per_sec * calibrations[i].wire_bandwidth_multiplier;
    egress_latency_[i] =
        ScaleLatency(costs_.wire_latency, calibrations[i].wire_latency_multiplier);
  }
}

void Network::Transmit(HostId from, HostId to, ByteCount bytes, TrafficKind kind,
                       std::function<void()> deliver) {
  ACCENT_EXPECTS(from != to) << " loopback transmissions never touch the wire";
  ACCENT_EXPECTS(deliver != nullptr);

  ++transmissions_;
  bytes_carried_ += bytes;
  if (recorder_ != nullptr) {
    recorder_->Record(kind, bytes);
  }

  // Uncalibrated (the default and every golden-digest path) reads the
  // shared CostTable values; a calibrated sender reads its own link.
  const std::size_t link = static_cast<std::size_t>(from.value - 1);
  const double bytes_per_sec = calibrated_ && link < egress_bytes_per_sec_.size()
                                   ? egress_bytes_per_sec_[link]
                                   : costs_.wire_bytes_per_sec;
  const SimDuration latency = calibrated_ && link < egress_latency_.size()
                                  ? egress_latency_[link]
                                  : costs_.wire_latency;
  const auto serialize = SimDuration(static_cast<std::int64_t>(
      static_cast<double>(bytes) / bytes_per_sec * 1e6));

  if (model_ == WireModel::kSwitched) {
    // Private egress port: the sender's own transmissions queue behind
    // each other, never behind another host's.
    ACCENT_CHECK(from.value >= 1 && from.value <= egress_busy_until_.size())
        << " host " << from << " has no egress port";
    SimTime& busy = egress_busy_until_[static_cast<std::size_t>(from.value - 1)];
    const SimTime start = std::max(sim_.Now(), busy);
    busy = start + serialize;
    const SimTime arrival = busy + latency;
    if (Tracer* tracer = sim_.tracer()) {
      tracer->Complete(from, TraceLane::kWire, "wire:tx", start, arrival - start,
                       {{"to", Json(to.value)},
                        {"bytes", Json(bytes)},
                        {"kind", Json(TrafficKindName(kind))}});
    }
    sim_.ScheduleAt(arrival, std::move(deliver));
    return;
  }

  const SimTime start = std::max(sim_.Now(), wire_busy_until_);
  wire_busy_until_ = start + serialize;
  const SimTime arrival = wire_busy_until_ + latency;

  if (Tracer* tracer = sim_.tracer()) {
    tracer->Complete(from, TraceLane::kWire, "wire:tx", start, arrival - start,
                     {{"to", Json(to.value)},
                      {"bytes", Json(bytes)},
                      {"kind", Json(TrafficKindName(kind))}});
  }

  if (fault_ == nullptr) {
    sim_.ScheduleAt(arrival, std::move(deliver));
    return;
  }

  // Lost packets still occupy the wire (collisions, a crashed receiver's
  // frames are transmitted regardless); only delivery is affected.
  FaultVerdict verdict = fault_->Judge(from, to, sim_.Now());
  if (Tracer* tracer = sim_.tracer()) {
    if (verdict.lost) {
      tracer->Instant(from, TraceLane::kWire, "fault:drop", sim_.Now(),
                      {{"to", Json(to.value)}, {"bytes", Json(bytes)}});
    } else if (verdict.extra_delays.size() > 1) {
      tracer->Instant(
          from, TraceLane::kWire, "fault:duplicate", sim_.Now(),
          {{"to", Json(to.value)},
           {"copies",
            Json(static_cast<std::uint64_t>(verdict.extra_delays.size()))}});
    } else if (!verdict.extra_delays.empty() &&
               verdict.extra_delays.front() > SimDuration{0}) {
      tracer->Instant(from, TraceLane::kWire, "fault:delay", sim_.Now(),
                      {{"to", Json(to.value)},
                       {"extra_us", Json(verdict.extra_delays.front().count())}});
    }
  }
  if (verdict.lost) {
    ++deliveries_lost_;
    return;
  }
  auto shared_deliver =
      verdict.extra_delays.size() > 1
          ? std::make_shared<std::function<void()>>(std::move(deliver))
          : nullptr;
  for (std::size_t copy = 0; copy < verdict.extra_delays.size(); ++copy) {
    const SimTime when = arrival + verdict.extra_delays[copy];
    // Re-check the receiver at arrival: a host that crashes while the
    // packet is in flight still loses it.
    FaultInjector* fault = fault_;
    if (shared_deliver != nullptr) {
      sim_.ScheduleAt(when, [this, fault, to, when, shared_deliver]() {
        if (fault->HostDown(to, when)) {
          ++deliveries_lost_;
          if (Tracer* tracer = sim_.tracer()) {
            tracer->Instant(to, TraceLane::kWire, "fault:dead-receiver", when);
          }
          return;
        }
        (*shared_deliver)();
      });
    } else {
      sim_.ScheduleAt(when, [this, fault, to, when, deliver = std::move(deliver)]() {
        if (fault->HostDown(to, when)) {
          ++deliveries_lost_;
          if (Tracer* tracer = sim_.tracer()) {
            tracer->Instant(to, TraceLane::kWire, "fault:dead-receiver", when);
          }
          return;
        }
        deliver();
      });
    }
  }
}

}  // namespace accent
