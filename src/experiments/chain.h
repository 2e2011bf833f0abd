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
//     process terminates, matches the unmigrated reference
//     (ReferenceChecksum, scenario.h);
//   - evacuation: after the collapse completes, zero page-fault requests
//     are serviced by (or routed through) B, and B's backer owns no
//     objects — only inert stubs remain;
//   - residual routing: post-collapse imaginary faults at C are served by
//     the origin A.
//
// The crash variant additionally kills B for good shortly after the
// collapse (the spec's crash_dest_at) and requires the process to finish at
// C regardless — the residual-dependency surface shrank from {A, B} to {A}.
#ifndef SRC_EXPERIMENTS_CHAIN_H_
#define SRC_EXPERIMENTS_CHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/experiments/scenario.h"

namespace accent {

// A crash time beyond every run's horizon: a spec carrying it runs with the
// fault injector and the reliable transport on, yet its destination never
// dies.
inline constexpr SimTime kParkedCrash = SimTime{3'000'000'000'000};  // ~35 days

// The chain grid for one workload on the three-host bed (dest = B,
// redest = C, re-migrating halfway through the trace remaining at B): the
// paper grid's cells (PaperGridSpecs, sweep.h), pure-copy once (it ignores
// prefetch), then {pure-IOU, resident-set} x kPaperPrefetchValues, then one
// pre-copy cell — 12 specs.
std::vector<FuzzScenario> ChainSweepSpecs(const std::string& workload, std::uint64_t seed = 42);

// The crash variant of each chain cell in `specs`: the cell first runs with
// B's crash parked at kParkedCrash, so its schedule matches the crashed
// rerun's up to the crash and fixes when the chain collapses (CHECKed to
// finish at C and collapse); then it reruns with B dead for good from 1 ms
// after that collapse. Returns the reruns, each spec carrying its crash
// time, in input order.
std::vector<MechTrial> RunChainCrashTrials(std::vector<FuzzScenario> specs, int threads = 0);

// Canonical JSON (sorted keys, exact integers): totals, one MechRowToJson
// row per trial and per crash trial (the latter adding crash_at_us and
// survived), and the gates on those totals (src/metrics/gates.h). Equal
// sweeps dump byte-identically.
Json ChainSweepToJson(const std::vector<MechTrial>& trials,
                      const std::vector<MechTrial>& crash_trials);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_CHAIN_H_
