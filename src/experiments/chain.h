// Multi-hop re-migration trials: the A -> B -> C chain.
//
// A representative process migrates from host A to host B, executes part of
// its remaining trace there, then re-migrates to host C under the same
// strategy. The intermediary B accumulates backed objects (the IOU cache or
// the resident-set owed object) exactly as A did on the first hop; once the
// process resumes at C, B's MigrationManager collapses the chain — exporting
// its cache objects back to the chain origin A, rebinding C's IouRefs there
// and retiring into forwarding stubs — so B drops off the fault path
// entirely. Each trial verifies:
//
//   - end-to-end integrity: the observable checksum at C, taken when the
//     process terminates, matches the single-hop reference
//     (ChainReferenceChecksum, scenario.h);
//   - evacuation: after the collapse completes, zero page-fault requests
//     are serviced by (or routed through) B, and B's backer owns no
//     objects — only inert stubs remain;
//   - residual routing: post-collapse imaginary faults at C are served by
//     the origin A.
//
// The crash variant additionally kills B for good shortly after the
// collapse and requires the process to finish at C regardless — the
// residual-dependency surface shrank from {A, B} to {A}.
#ifndef SRC_EXPERIMENTS_CHAIN_H_
#define SRC_EXPERIMENTS_CHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/host/calibration.h"
#include "src/migration/migration_manager.h"
#include "src/migration/migration_record.h"
#include "src/migration/strategy.h"

namespace accent {

struct ChainTrialConfig {
  std::string workload = "Minprog";
  TransferStrategy strategy = TransferStrategy::kPureIou;
  std::uint32_t prefetch = 0;
  std::uint64_t seed = 42;
  // Re-migrate after this fraction of the trace remaining at B has executed.
  double remigrate_at = 0.5;

  // Crash variant: plant a permanent B crash at `crash_at` (taken from a
  // prior baseline's collapse time) and run over the reliable transport.
  bool crash_intermediate = false;
  SimTime crash_at{0};

  // Per-host calibrations for the three-host chain testbed (empty = the
  // homogeneous seed testbed, byte-identical). Timing-only: the integrity
  // reference is always computed on a homogeneous bed because page contents
  // never depend on hardware speed.
  std::vector<HostCalibration> calibrations{};
};

struct ChainTrialResult {
  ChainTrialConfig config;

  bool drained = false;        // event queue emptied before the horizon
  bool hop1_done = false;
  bool hop2_done = false;
  bool finished_at_c = false;  // the process ran to completion at C
  bool integrity_ok = false;   // touched checksum matches the local run
  SimTime finished{0};

  MigrationRecord hop1;  // A -> B
  MigrationRecord hop2;  // B -> C

  // Collapse protocol outcome at the intermediary.
  bool collapse_done = false;
  ChainCollapseStats collapse;
  std::uint64_t handoff_pages = 0;  // pages B exported to the origin

  // B after the collapse. The invariant the bench gates on: nothing is
  // serviced by or routed through an evacuated intermediary.
  std::uint64_t b_requests_after_collapse = 0;
  std::uint64_t b_forwards_after_collapse = 0;
  std::uint64_t b_objects_after_collapse = 0;
  std::uint64_t b_stubs = 0;

  // Residual-fault routing: requests the origin served after the collapse.
  std::uint64_t origin_requests_after_collapse = 0;
  std::uint64_t c_imag_faults = 0;  // destination-side fault count

  SimDuration Hop1Downtime() const { return hop1.Downtime(); }
  SimDuration Hop2Downtime() const { return hop2.Downtime(); }
};

// Runs one chain trial end to end through the shared runner (scenario.h):
// a three-host spec with dest = B, redest = C and the re-migration armed.
// Deterministic per config.
ChainTrialResult RunChainTrial(const ChainTrialConfig& config);

// The chain grid for one workload, mirroring StrategySweepConfigs: pure-copy
// once (it ignores prefetch), then {pure-IOU, resident-set} x
// kPaperPrefetchValues, then one pre-copy cell — 12 trials. Single source
// of truth for grid order.
std::vector<ChainTrialConfig> ChainSweepConfigs(const std::string& workload,
                                                std::uint64_t seed = 42);

// Runs `configs` across up to `threads` workers (0 = SweepThreadCount()),
// results in input order — byte-identical at any thread count.
std::vector<ChainTrialResult> RunChainTrials(const std::vector<ChainTrialConfig>& configs,
                                             int threads = 0);

// Crash variant outcome: a lossless (but reliable-transport) baseline fixes
// the collapse time, then the trial reruns with B crashed for good just
// after it.
struct ChainCrashResult {
  ChainTrialResult baseline;  // reliable transport, no crash
  ChainTrialResult crashed;   // B dead from baseline collapse + margin
  bool survived = false;      // crashed run finished at C with intact pages
};

ChainCrashResult RunChainCrashTrial(ChainTrialConfig config);

// Canonical JSON (sorted keys, exact integers): totals, one record per
// trial, and the gates on those totals (src/metrics/gates.h). Equal sweeps
// dump byte-identically.
Json ChainSweepToJson(const std::vector<ChainTrialResult>& trials,
                      const std::vector<ChainCrashResult>& crash_trials);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_CHAIN_H_
