// The paper-grid trial as perfbench (perfbench/) names it: a thin
// projection of one spec run (scenario.h), kept only until the benchmark
// harness moves onto FuzzScenario and MechRun.
//
// RunTrial runs its spec through RunMech on a lossless testbed, CHECKs that
// the migration completed and the process ran to completion at the
// destination, and reshapes the run into the TrialResult fields perfbench
// and the golden sweep digest read.
#ifndef SRC_EXPERIMENTS_TRIAL_H_
#define SRC_EXPERIMENTS_TRIAL_H_

#include <string>
#include <vector>

#include "src/experiments/scenario.h"
#include "src/experiments/sweep.h"
#include "src/workloads/workload.h"

namespace accent {

using TrialConfig = FuzzScenario;

struct TrialResult {
  TrialConfig config;
  WorkloadSpec spec;
  MigrationRecord migration;

  SimTime finished{0};        // remote completion
  SimDuration remote_exec{0}; // finished - resumed

  // Byte traffic between the machines (Figure 4-3 / 4-5).
  ByteCount bytes_total = 0;
  ByteCount bytes_control = 0;
  ByteCount bytes_core = 0;
  ByteCount bytes_bulk = 0;
  ByteCount bytes_fault = 0;
  std::uint64_t messages_total = 0;
  std::vector<TrafficRecorder::Bucket> series;  // kTrafficBucket buckets

  // Message-handling cost (Figure 4-4): NetMsgServer busy time, both nodes.
  SimDuration netmsg_busy{0};

  // Destination-side fault behaviour.
  PagerStats dest_pager;

  // RealMem bytes that crossed the wire as page data (Table 4-3).
  ByteCount real_bytes_transferred = 0;

  // --- derived -------------------------------------------------------------
  // Figure 4-2's summed metric: address-space transfer + remote execution.
  SimDuration TransferPlusExec() const {
    return migration.RimasTransferTime() + remote_exec;
  }
  double FractionOfRealTransferred() const {
    return spec.real_bytes == 0
               ? 0.0
               : static_cast<double>(real_bytes_transferred) / static_cast<double>(spec.real_bytes);
  }
};

// Runs a complete trial. Deterministic for a given config.
TrialResult RunTrial(const TrialConfig& config);

// PaperGridSpecs (sweep.h) under its older name.
inline std::vector<TrialConfig> StrategySweepConfigs(const std::string& workload,
                                                     std::uint64_t seed = 42) {
  return PaperGridSpecs(workload, seed);
}

}  // namespace accent

#endif  // SRC_EXPERIMENTS_TRIAL_H_
