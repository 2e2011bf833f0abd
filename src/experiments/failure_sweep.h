// The failure matrix: migration under a lossy, partitioning wire.
//
// The paper's evaluation assumes the testbed Ethernet never fails; §5's
// residual-dependency discussion is exactly the admission that it can. This
// sweep reruns the seven representative workloads under every transfer
// strategy while a FaultPlan mistreats the wire, and classifies each trial:
//
//   completed      — the migration finished and the destination's touched
//                    pages are byte-identical to the lossless run;
//   aborted        — the transfer could not complete (peer unreachable);
//                    the source rolled the process back and it stayed
//                    runnable at home;
//   terminal_fault — the migration completed but a residual dependency
//                    (copy-on-reference page owed by a crashed source)
//                    could never be satisfied; the process stopped with a
//                    fault instead of hanging;
//   hung           — the simulated-time watchdog fired: events still
//                    pending past the horizon. Always a bug; the suite
//                    asserts this count is zero.
//
// Every (workload, strategy) group first runs a lossless baseline to learn
// the migration's natural phase boundaries — crash windows are planted
// mid-transfer and mid-remote-execution relative to those — and to record
// the integrity checksum faulty runs must reproduce. Groups are independent
// (each trial owns a private Testbed), so the matrix fans out across
// threads with byte-identical results at any thread count.
#ifndef SRC_EXPERIMENTS_FAILURE_SWEEP_H_
#define SRC_EXPERIMENTS_FAILURE_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/migration/migration_record.h"
#include "src/migration/strategy.h"
#include "src/net/fault.h"

namespace accent {

enum class FailureOutcome : int {
  kCompleted = 0,
  kAborted = 1,
  kTerminalFault = 2,
  kHung = 3,
};

const char* FailureOutcomeName(FailureOutcome outcome);

// One column of the matrix: a wire mistreatment recipe. Crash flags plant a
// permanent CrashWindow at a phase boundary taken from the group's lossless
// baseline (the plan cannot carry absolute times until that run exists).
struct FailureScenario {
  std::string name;
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double reorder = 0.0;
  bool crash_dest = false;    // destination dies mid-transfer, for good
  bool crash_source = false;  // source dies mid-remote-execution, for good
};

// The fixed scenario set (grid order): drop2, lossy5 (the acceptance
// recipe: 5% drop + 5% duplicate + reorder), dest_crash, source_crash.
const std::vector<FailureScenario>& FailureScenarios();

// Lossless reference for one (workload, strategy): phase boundaries for
// crash placement, completion time for slowdown, touched-page checksum for
// integrity.
struct FailureBaseline {
  MigrationRecord migration;
  SimTime finished{0};
  SimDuration remote_exec{0};
  std::uint64_t touched_checksum = 0;
};

struct FailureTrialResult {
  std::string workload;
  TransferStrategy strategy = TransferStrategy::kPureCopy;
  std::string scenario;
  FailureOutcome outcome = FailureOutcome::kHung;
  bool integrity_ok = false;  // completed AND checksum matches baseline
  bool rolled_back = false;   // aborted AND process runnable at source again
  bool restored = false;      // completed via a checkpoint-store restore
  std::string abort_reason;

  // Retry/fault traffic accounting (summed over both hosts).
  std::uint64_t fragments_retransmitted = 0;
  ByteCount retransmit_bytes = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t transfers_dead_lettered = 0;
  std::uint64_t deliveries_lost = 0;  // Network-level drops/blocks

  SimTime finished{0};    // remote (or rolled-back local) completion
  double slowdown = 0.0;  // finished / lossless finished; completed only
};

// Sweep-wide knobs. The default runs the classic two-host matrix,
// byte-identical to before the checkpoint store existed. checkpoint_store
// adds a third host (never crashed) carrying a durable checkpoint store
// (docs/INTERNALS.md §16); the baseline runs store-configured too, so crash
// windows and integrity references account for the store's wire traffic.
struct FailureSweepOptions {
  bool checkpoint_store = false;
};

FailureBaseline RunFailureBaseline(const std::string& workload, TransferStrategy strategy,
                                   std::uint64_t seed,
                                   const FailureSweepOptions& options = {});

FailureTrialResult RunFailureTrial(const std::string& workload, TransferStrategy strategy,
                                   const FailureScenario& scenario,
                                   const FailureBaseline& baseline, std::uint64_t seed,
                                   const FailureSweepOptions& options = {});

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
                               const FailureSweepOptions& options = {});

// Canonical JSON (sorted keys, exact integers): counts, one record per
// trial, and the hung and integrity gates (src/metrics/gates.h). Equal
// matrices dump byte-identically.
Json FailureMatrixToJson(const FailureMatrix& matrix);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_FAILURE_SWEEP_H_
