// Adversarial scenario fuzzer: randomised topology x workload x faults x
// strategy, checked against the repo's standing oracles.
//
// Each seed deterministically derives one scenario: a 2-8 host testbed with
// mixed per-host calibrations (CPU speed, link latency/bandwidth, diskless
// hosts), one Table 4-1 workload migrating under a random strategy and
// prefetch depth, an optional mid-trial re-migration to a third host, and a
// FaultPlan mistreating the wire (drop/duplicate/delay/reorder, a transient
// source-destination partition, or a permanent crash planted at a phase
// boundary learned from the scenario's own lossless baseline — the failure
// sweep's methodology). The same seed also drives a small fleet trial over
// the same topology and calibrations.
//
// Oracles (every scenario, every seed):
//   - census/content integrity: a completed process's touched pages match
//     the unmigrated reference (ReferenceChecksum); a rolled-back process
//     must match it too once it re-finishes at home;
//   - zero hangs: the simulated-time watchdog (RunGuarded) always drains;
//   - balanced backer references: after a crash-free completed run, no host
//     but the chain origin owns backer objects, and no duplicate death
//     notices were processed anywhere;
//   - fleet census: the fleet trial's books balance, it does not hang, and
//     no diskless host anchors owed pages;
//   - dedup identity (content-cache scenarios): every page served from a
//     ContentCache or a holder pull is byte-identical to what the origin
//     would have served — any hash mismatch counted by a pager, cache or
//     backer fails the scenario — and a cache hit can never resurrect a page
//     owned by a retired backer stub (a cached serve still runs the standing
//     integrity + backer-balance oracles, so a stale serve shows up as a
//     checksum or census violation). Cache-off scenarios must never touch
//     the dedup plane at all;
//   - payload balance (corpus level): live PageRef payloads return to the
//     pre-corpus value once every trial's testbed is destroyed.
//
// Every failure logs its seed plus a ready-to-paste
// `tools/migrate_sim --replay-seed=N` line that reruns the exact scenario
// with tracing available.
#ifndef SRC_EXPERIMENTS_SCENARIO_FUZZ_H_
#define SRC_EXPERIMENTS_SCENARIO_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/experiments/scenario.h"

namespace accent {

// Deterministically derives seed -> scenario. Same seed, same scenario.
FuzzScenario MakeScenario(std::uint64_t seed);

struct FuzzScenarioResult {
  FuzzScenario scenario;

  // The judged run (the faulty one; the baseline when the scenario is
  // lossless) and its verdict; when the baseline itself fails, the baseline
  // with a hung verdict. outcome, rolled_back, remigrated, integrity_ok and
  // hang below repeat them for perfbench and migrate_sim, which read those.
  MechRun run;
  MechVerdict verdict;

  // Mechanistic trial classification (failure-sweep taxonomy).
  FailureOutcome outcome = FailureOutcome::kHung;
  bool rolled_back = false;
  bool remigrated = false;  // the armed re-migration actually fired

  // Oracle verdicts.
  bool integrity_ok = false;      // touched contents match the reference
  bool hang = false;              // RunGuarded failed to drain
  bool backer_balanced = true;    // no stray objects / duplicate deaths
  // Always true: a scenario runs one fleet trial, so there is nothing to
  // compare. Kept only because perfbench/perfbench.cc:470 reads it.
  bool shard_match = true;
  bool cluster_census_ok = true;  // fleet books balance
  bool cluster_hung = false;      // fleet watchdog tripped
  bool dedup_ok = true;           // no hash mismatch anywhere in the walk
  std::uint64_t cache_activity = 0;  // cache-served pages (hits+confirms+pulls)
  bool checkpoint_ok = true;         // store-off scenarios never touch the store
  std::uint64_t checkpoints = 0;     // checkpoint puts sent (store on)
  std::uint64_t restores = 0;        // restores completed from the store

  // Diskless bookkeeping carried up from the fleet trial.
  std::uint64_t diskless_backing_anchors = 0;

  // Empty when the scenario passed; otherwise a short reason list.
  std::string failure;

  bool ok() const { return failure.empty(); }
};

// Runs one scenario end to end through the shared runner (scenario.h): the
// content reference, the lossless baseline, the faulty run with its
// windows planted at the baseline's phase boundaries, the classification,
// the oracles, and the fleet trial.
FuzzScenarioResult RunScenario(const FuzzScenario& scenario);
FuzzScenarioResult RunScenario(std::uint64_t seed);

struct FuzzCorpusResult {
  std::vector<FuzzScenarioResult> results;  // seed order

  std::uint64_t scenarios = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t terminal_faults = 0;
  std::uint64_t hung = 0;
  std::uint64_t integrity_failures = 0;
  std::uint64_t backer_imbalances = 0;
  std::uint64_t cluster_census_failures = 0;
  std::uint64_t cluster_hangs = 0;
  std::uint64_t diskless_backing_anchors = 0;
  std::uint64_t remigrations = 0;
  std::uint64_t crash_scenarios = 0;
  std::uint64_t cached_scenarios = 0;  // scenarios with the content cache on
  std::uint64_t dedup_failures = 0;    // scenarios with any hash mismatch
  std::uint64_t checkpoint_scenarios = 0;  // scenarios with the store on
  std::uint64_t restores_completed = 0;    // checkpoint restores across the corpus
  std::uint64_t checkpoint_failures = 0;   // store-off scenarios that touched it
  std::uint64_t failures = 0;  // scenarios with any non-empty failure

  // Live PageRef payloads after minus before the corpus; must be 0 once
  // every trial's simulation objects are destroyed.
  std::int64_t payload_leak = 0;
};

// Runs seeds [first_seed, first_seed + count) across up to `threads`
// workers (<= 0 picks SweepThreadCount()). Results in seed order,
// byte-identical at any thread count. Each failing scenario is logged with
// its --replay-seed line.
FuzzCorpusResult RunFuzzCorpus(std::uint64_t first_seed, std::uint64_t count,
                               int threads = 0);

// Canonical JSON (sorted keys, exact integers): the oracle counters, one
// row per scenario (the judged run's MechRowToJson row plus the scenario's
// oracles), and the gates on those counters (src/metrics/gates.h). Equal
// corpora dump byte-identically.
Json FuzzCorpusToJson(const FuzzCorpusResult& corpus);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_SCENARIO_FUZZ_H_
