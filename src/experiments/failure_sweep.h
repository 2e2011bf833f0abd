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
// mid-transfer and mid-remote-execution relative to those. Every run,
// baselines included, is judged against the workload's ReferenceChecksum
// (scenario.h). Groups are independent (each trial owns a private Testbed),
// so the matrix fans out across threads with byte-identical results at any
// thread count.
//
// The checkpoint matrix is the same grid with a durable checkpoint store
// (docs/INTERNALS.md §16) on a third host that no crash window targets;
// its baselines run store-configured too, so crash windows account for the
// store's wire traffic.
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

// `faults` (a column's wire recipe) on the (workload, strategy) group's bed:
// the classic two-host bed, or with the checkpoint store a third host
// carrying it, out of every crash window (crashes target the source and the
// destination only).
FuzzScenario FailureSpec(const FuzzScenario& faults, const std::string& workload,
                         TransferStrategy strategy, std::uint64_t seed,
                         bool checkpoint_store = false);

// The lossless, unreliable baseline of `spec`'s group: the paper's
// fire-and-forget transport (acks and retry timers off), so slowdowns
// charge the retry protocol too. CHECKs that it completes and folds
// `reference`.
MechRun RunFailureBaseline(const FuzzScenario& spec, std::uint64_t reference);

// One cell: `spec`'s faults planted at `baseline`'s phase boundaries,
// drawing verdicts from a seed mixed from the spec's seed and its grid
// coordinate (workload, strategy, `column`), judged against `reference`.
MechTrial RunFailureTrial(const FuzzScenario& spec, const std::string& column,
                          const MechRun& baseline, std::uint64_t reference);

struct FailureMatrix {
  // Grid order: one lossless baseline per (workload, strategy) group, and
  // per group one trial per FailureScenarios() column.
  std::vector<MechRun> baselines;
  std::vector<MechTrial> trials;
};

// Runs the full grid: 7 workloads x 4 strategies x FailureScenarios(),
// judged against each workload's ReferenceChecksum. Parallelises over the
// 28 (workload, strategy) groups; each group runs its baseline and
// scenarios serially on one thread. threads = 0 uses SweepThreadCount().
// Byte-identical output at any thread count.
FailureMatrix RunFailureMatrix(std::uint64_t seed = 42, int threads = 0,
                               bool checkpoint_store = false);

// Canonical JSON (sorted keys, exact integers): counts, one MechRowToJson
// row per trial plus its column name (`scenario`) and `slowdown` (finish
// over its baseline's; completed only), and the hung and integrity gates
// (src/metrics/gates.h). Equal matrices dump byte-identically.
Json FailureMatrixToJson(const FailureMatrix& matrix);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_FAILURE_SWEEP_H_
