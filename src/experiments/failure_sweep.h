// The failure matrix: migration under a lossy, partitioning wire.
//
// The paper's evaluation assumes the testbed Ethernet never fails; §5's
// residual-dependency discussion is exactly the admission that it can. This
// sweep reruns the seven representative workloads under every transfer
// strategy while a FaultPlan mistreats the wire, and classifies each trial
// as completed, aborted, terminal_fault or hung (FailureOutcome,
// scenario.h); the suite asserts the hung count is zero.
//
// Every (workload, strategy) group first runs a lossless baseline to learn
// the migration's natural phase boundaries — crash windows are planted
// mid-transfer and mid-remote-execution relative to those — and to record
// the integrity checksum faulty runs must reproduce. Groups are independent
// (each trial owns a private Testbed), so the matrix fans out across
// threads with byte-identical results at any thread count.
//
// The checkpoint matrix is the same grid with a durable checkpoint store
// (docs/INTERNALS.md §16) on a third host that no crash window targets;
// its baselines run store-configured too, so crash windows and integrity
// references account for the store's wire traffic.
#ifndef SRC_EXPERIMENTS_FAILURE_SWEEP_H_
#define SRC_EXPERIMENTS_FAILURE_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/experiments/scenario.h"
#include "src/migration/strategy.h"

namespace accent {

// One column of the matrix: a named wire mistreatment recipe. `faults`
// carries only the spec's wire fields (drop/duplicate/delay/reorder and the
// crash flags); PlantFaults places its crash windows at phase boundaries
// taken from the group's lossless baseline.
struct FailureScenario {
  std::string name;
  FuzzScenario faults;
};

// The fixed scenario set (grid order): drop2, lossy5 (the acceptance
// recipe: 5% drop + 5% duplicate + reorder), dest_crash, source_crash.
const std::vector<FailureScenario>& FailureScenarios();

struct FailureTrialResult {
  std::string workload;
  TransferStrategy strategy = TransferStrategy::kPureCopy;
  std::string scenario;
  FailureOutcome outcome = FailureOutcome::kHung;
  bool integrity_ok = false;  // completed AND checksum matches baseline
  bool rolled_back = false;   // aborted AND process runnable at source again
  bool restored = false;      // completed via a checkpoint-store restore
  std::string abort_reason;

  // Retry/fault traffic accounting (source and destination summed).
  std::uint64_t fragments_retransmitted = 0;
  ByteCount retransmit_bytes = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t transfers_dead_lettered = 0;
  std::uint64_t deliveries_lost = 0;  // Network-level drops/blocks

  SimTime finished{0};    // remote (or rolled-back local) completion
  double slowdown = 0.0;  // finished / lossless finished; completed only
};

// The lossless, unreliable baseline of one (workload, strategy) group: the
// paper's original fire-and-forget path, so slowdowns charge the retry
// protocol too. CHECKs that it completes.
MechRun RunFailureBaseline(const std::string& workload, TransferStrategy strategy,
                           std::uint64_t seed, bool checkpoint_store = false);

// One cell: `scenario`'s faults planted at `baseline`'s phase boundaries,
// judged against the baseline's checksum.
FailureTrialResult RunFailureTrial(const std::string& workload, TransferStrategy strategy,
                                   const FailureScenario& scenario, const MechRun& baseline,
                                   std::uint64_t seed, bool checkpoint_store = false);

struct FailureMatrix {
  std::vector<FailureTrialResult> trials;  // fixed grid order
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t terminal_faults = 0;
  std::uint64_t hung = 0;
  std::uint64_t integrity_failures = 0;  // completed with a checksum mismatch
  std::uint64_t restored = 0;            // completed via checkpoint restore
};

// Runs the full grid: 7 workloads x 4 strategies x FailureScenarios().
// Parallelises over the 28 (workload, strategy) groups; each group runs its
// baseline and scenarios serially on one thread. threads = 0 uses
// SweepThreadCount(). Byte-identical output at any thread count.
FailureMatrix RunFailureMatrix(std::uint64_t seed = 42, int threads = 0,
                               bool checkpoint_store = false);

// Canonical JSON (sorted keys, exact integers): counts, one record per
// trial, and the hung and integrity gates (src/metrics/gates.h). Equal
// matrices dump byte-identically.
Json FailureMatrixToJson(const FailureMatrix& matrix);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_FAILURE_SWEEP_H_
