// Network byte accounting.
//
// Every byte crossing the wire is attributed to a traffic kind so the
// harness can reproduce Figure 4-3 (bytes per trial), Figure 4-5 (transfer
// rate over time, imaginary-fault bytes vs the rest) and the cost
// distribution discussion in section 4.4.3.
#ifndef SRC_NET_TRAFFIC_H_
#define SRC_NET_TRAFFIC_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/base/types.h"
#include "src/sim/simulator.h"

namespace accent {

enum class TrafficKind : int {
  kControl = 0,      // migration requests, acks, segment death notices
  kCoreContext = 1,  // the Core context message (PCB, microstate, AMap)
  kBulkData = 2,     // RIMAS RealMem payload shipped at migration time
  kFaultData = 3,    // imaginary fault requests + replies (incl. prefetch)
  kKindCount = 4,
};

const char* TrafficKindName(TrafficKind kind);

class TrafficRecorder {
 public:
  TrafficRecorder(Simulator* sim, SimDuration bucket_width)
      : sim_(*sim), bucket_width_(bucket_width) {
    ACCENT_EXPECTS(sim != nullptr);
    ACCENT_EXPECTS(bucket_width > SimDuration::zero());
  }

  void Record(TrafficKind kind, ByteCount bytes);

  ByteCount TotalBytes() const;
  ByteCount BytesOf(TrafficKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t MessagesOf(TrafficKind kind) const {
    return messages_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t TotalMessages() const;

  struct Bucket {
    SimTime start{0};
    std::array<ByteCount, static_cast<std::size_t>(TrafficKind::kKindCount)> bytes{};

    bool operator==(const Bucket&) const = default;
  };
  // Time series of byte counts, one bucket per `bucket_width`.
  const std::vector<Bucket>& buckets() const { return buckets_; }
  SimDuration bucket_width() const { return bucket_width_; }

  void Reset();

 private:
  Simulator& sim_;
  SimDuration bucket_width_;
  std::array<ByteCount, static_cast<std::size_t>(TrafficKind::kKindCount)> totals_{};
  std::array<std::uint64_t, static_cast<std::size_t>(TrafficKind::kKindCount)> messages_{};
  std::vector<Bucket> buckets_;
};

}  // namespace accent

#endif  // SRC_NET_TRAFFIC_H_
