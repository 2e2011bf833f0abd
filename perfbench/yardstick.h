// The yardstick: a fixed single-threaded workload, independent of the
// simulator's code, that measures how fast the host runs at the moment.
//
// Host speed on a shared virtual machine drifts by tens of percent for
// seconds to minutes at a time, with CPU time equal to wall time, so raw
// host times of the same code differ from run to run far more than the
// changes they are meant to resolve. The benchmark reads the yardstick
// between stretches of work and scales every host time by
// kYardstickBaselineS / (the readings around it): a time then reads as the
// time the work would take on a host running at the baseline speed. A
// change to the simulator cannot move the yardstick, because the yardstick
// shares no code with it.
//
// The work mimics the simulator's mix: a binary heap of timed events whose
// handlers are type-erased closures with a 40-byte capture, a hash-map page
// table, 512-byte page copies and hashes, and allocation churn.
#ifndef PERFBENCH_YARDSTICK_H_
#define PERFBENCH_YARDSTICK_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// Host seconds of one reading on the baseline host (perfbench/README.md).
inline constexpr double kYardstickBaselineS = 0.009;

// A reading is the fastest of this many passes, so a short stall inside one
// pass does not count as a slow host.
inline constexpr int kPassesPerReading = 3;

// Checksum of one pass; the work is fixed, so every pass must reproduce it.
inline constexpr std::uint64_t kYardstickChecksum = 0x7637f47beacf33a6;

struct YardstickPass {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
};

// Runs one pass of the fixed workload.
YardstickPass RunYardstick();

// Reads the yardstick between stretches of measured work and turns their
// raw host times into baseline-speed times.
class HostSpeed {
 public:
  // Takes the first reading, so the first measured work has one before it.
  HostSpeed();

  // Takes a reading after work that followed the previous one, and returns
  // the factor that scales that work's raw host time to the baseline speed:
  // kYardstickBaselineS over the mean of the readings before and after it.
  double ScaleSinceLastReading();

  // Seconds of every reading so far.
  const std::vector<double>& reading_s() const { return reading_s_; }

  // True while every pass reproduced kYardstickChecksum.
  bool ok() const { return ok_; }

 private:
  void Read();

  std::vector<double> reading_s_;
  bool ok_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_YARDSTICK_H_
