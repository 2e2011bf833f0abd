#include "src/experiments/failure_sweep.h"

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/experiments/sweep.h"
#include "src/metrics/gates.h"
#include "src/workloads/workload.h"

namespace accent {

namespace {

const TransferStrategy kStrategies[] = {TransferStrategy::kPureCopy,
                                        TransferStrategy::kPureIou,
                                        TransferStrategy::kResidentSet,
                                        TransferStrategy::kPreCopy};

std::uint64_t Fnv(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// Every fault plan in one trial draws from a seed mixed from the trial seed
// and the full grid coordinate, so no two cells share a verdict stream.
std::uint64_t FaultSeed(std::uint64_t seed, const std::string& workload,
                        TransferStrategy strategy, const std::string& scenario) {
  return SplitMix64(seed ^ SplitMix64(Fnv(workload)) ^
                    SplitMix64(static_cast<std::uint64_t>(strategy) + 1) ^
                    SplitMix64(Fnv(scenario)));
}

// `spec` (a wire recipe, or none for the baseline) on the group's bed: the
// classic two-host bed, or with the checkpoint store a third host carrying
// it, out of every crash window (crashes target the source and the
// destination only).
FuzzScenario FailureSpec(FuzzScenario spec, const std::string& workload,
                         TransferStrategy strategy, std::uint64_t seed, bool checkpoint_store) {
  spec.seed = seed;
  spec.workload = workload;
  spec.strategy = strategy;
  if (checkpoint_store) {
    spec.host_count = 3;
    spec.checkpoint = true;
    spec.checkpoint_host = 3;
  }
  return spec;
}

}  // namespace

const std::vector<FailureScenario>& FailureScenarios() {
  static const std::vector<FailureScenario> scenarios = [] {
    std::vector<FailureScenario> list;

    FailureScenario drop2{"drop2", {}};
    drop2.faults.drop = 0.02;
    list.push_back(drop2);

    // The acceptance recipe: 5% drop, 5% duplication, jitter wide enough to
    // reorder fragments. Every cell must complete with intact contents.
    FailureScenario lossy5{"lossy5", {}};
    lossy5.faults.drop = 0.05;
    lossy5.faults.duplicate = 0.05;
    lossy5.faults.delay = 0.10;
    lossy5.faults.reorder = 0.25;
    list.push_back(lossy5);

    FailureScenario dest_crash{"dest_crash", {}};
    dest_crash.faults.crash_dest = true;
    list.push_back(dest_crash);

    FailureScenario source_crash{"source_crash", {}};
    source_crash.faults.crash_source = true;
    list.push_back(source_crash);

    return list;
  }();
  return scenarios;
}

MechRun RunFailureBaseline(const std::string& workload, TransferStrategy strategy,
                           std::uint64_t seed, bool checkpoint_store) {
  const MechRun run =
      RunMech(FailureSpec({}, workload, strategy, seed, checkpoint_store), FaultPlan{}, seed);
  ACCENT_CHECK(run.drained && run.hop1_done && !run.hop1.aborted && run.finished)
      << " lossless baseline failed for " << workload;
  return run;
}

FailureTrialResult RunFailureTrial(const std::string& workload, TransferStrategy strategy,
                                   const FailureScenario& scenario, const MechRun& baseline,
                                   std::uint64_t seed, bool checkpoint_store) {
  const FuzzScenario spec =
      FailureSpec(scenario.faults, workload, strategy, seed, checkpoint_store);
  const MechRun run = RunMech(spec, PlantFaults(spec, baseline),
                              FaultSeed(seed, workload, strategy, scenario.name));
  const MechVerdict verdict = Classify(run, baseline.checksum);
  if (!verdict.failure.empty()) {
    ACCENT_LOG(kError) << "failure trial " << workload << "/" << StrategyName(strategy) << "/"
                       << scenario.name << ": " << verdict.failure;
  }

  FailureTrialResult result;
  result.workload = workload;
  result.strategy = strategy;
  result.scenario = scenario.name;
  result.outcome = verdict.outcome;
  result.integrity_ok = verdict.integrity_ok;
  result.rolled_back = verdict.rolled_back;
  result.fragments_retransmitted = run.netmsg.fragments_retransmitted;
  result.retransmit_bytes = run.netmsg.retransmit_bytes;
  result.duplicates_suppressed = run.netmsg.duplicates_suppressed;
  result.transfers_dead_lettered = run.netmsg.transfers_dead_lettered;
  result.deliveries_lost = run.deliveries_lost;
  if (verdict.outcome == FailureOutcome::kAborted) {
    result.abort_reason = run.hop1.abort_reason;
  }
  if (verdict.outcome != FailureOutcome::kHung) {
    result.finished = run.finish;
  }
  if (verdict.outcome == FailureOutcome::kCompleted) {
    result.restored = run.restores > 0;
    result.slowdown = static_cast<double>(result.finished.count()) /
                      static_cast<double>(baseline.finish.count());
  }
  return result;
}

FailureMatrix RunFailureMatrix(std::uint64_t seed, int threads, bool checkpoint_store) {
  const std::vector<WorkloadSpec>& workloads = RepresentativeWorkloads();
  const std::vector<FailureScenario>& scenarios = FailureScenarios();
  const std::size_t strategies = sizeof(kStrategies) / sizeof(kStrategies[0]);

  // One task per (workload, strategy) group: its lossless baseline first
  // (crash placement + integrity reference), then its scenarios in order.
  // Groups share nothing, so thread count and scheduling cannot reach any
  // result.
  const std::vector<std::vector<FailureTrialResult>> groups =
      ParallelMap(threads, workloads.size() * strategies, [&](std::size_t group) {
        const std::string& workload = workloads[group / strategies].name;
        const TransferStrategy strategy = kStrategies[group % strategies];
        const MechRun baseline = RunFailureBaseline(workload, strategy, seed, checkpoint_store);
        std::vector<FailureTrialResult> trials;
        for (const FailureScenario& scenario : scenarios) {
          trials.push_back(
              RunFailureTrial(workload, strategy, scenario, baseline, seed, checkpoint_store));
        }
        return trials;
      });

  FailureMatrix matrix;
  for (const std::vector<FailureTrialResult>& group : groups) {
    for (const FailureTrialResult& trial : group) {
      switch (trial.outcome) {
        case FailureOutcome::kCompleted:
          ++matrix.completed;
          if (!trial.integrity_ok) {
            ++matrix.integrity_failures;
          }
          if (trial.restored) {
            ++matrix.restored;
          }
          break;
        case FailureOutcome::kAborted:
          ++matrix.aborted;
          break;
        case FailureOutcome::kTerminalFault:
          ++matrix.terminal_faults;
          break;
        case FailureOutcome::kHung:
          ++matrix.hung;
          break;
      }
      matrix.trials.push_back(trial);
    }
  }
  return matrix;
}

Json FailureMatrixToJson(const FailureMatrix& matrix) {
  Json trials{Json::Array{}};
  for (const FailureTrialResult& trial : matrix.trials) {
    Json entry;
    entry["workload"] = Json(trial.workload);
    entry["strategy"] = Json(StrategyName(trial.strategy));
    entry["scenario"] = Json(trial.scenario);
    entry["outcome"] = Json(FailureOutcomeName(trial.outcome));
    entry["integrity_ok"] = Json(trial.integrity_ok);
    entry["rolled_back"] = Json(trial.rolled_back);
    entry["restored"] = Json(trial.restored);
    entry["abort_reason"] = Json(trial.abort_reason);
    entry["fragments_retransmitted"] = Json(trial.fragments_retransmitted);
    entry["retransmit_bytes"] = Json(trial.retransmit_bytes);
    entry["duplicates_suppressed"] = Json(trial.duplicates_suppressed);
    entry["transfers_dead_lettered"] = Json(trial.transfers_dead_lettered);
    entry["deliveries_lost"] = Json(trial.deliveries_lost);
    entry["finished_us"] = Json(static_cast<std::int64_t>(trial.finished.count()));
    entry["slowdown"] = Json(trial.slowdown);
    trials.Append(std::move(entry));
  }

  // Per-strategy x fault-kind breakdown of the terminal cells: the table
  // that shows which residual-dependency cells a checkpoint store flips to
  // survivable. Every (strategy, scenario) cell is present, zeros included,
  // so diffs across runs line up key for key.
  Json breakdown;
  for (TransferStrategy strategy : kStrategies) {
    Json per_scenario;
    for (const FailureScenario& scenario : FailureScenarios()) {
      std::uint64_t count = 0;
      for (const FailureTrialResult& trial : matrix.trials) {
        if (trial.strategy == strategy && trial.scenario == scenario.name &&
            trial.outcome == FailureOutcome::kTerminalFault) {
          ++count;
        }
      }
      per_scenario[scenario.name] = Json(count);
    }
    breakdown[StrategyName(strategy)] = std::move(per_scenario);
  }

  Json report;
  report["bench"] = Json("failure_matrix");
  report["schema_version"] = Json(2);
  report["trial_count"] = Json(static_cast<std::uint64_t>(matrix.trials.size()));
  report["completed"] = Json(matrix.completed);
  report["aborted"] = Json(matrix.aborted);
  report["terminal_faults"] = Json(matrix.terminal_faults);
  report["terminal_breakdown"] = std::move(breakdown);
  report["hung"] = Json(matrix.hung);
  report["integrity_failures"] = Json(matrix.integrity_failures);
  report["restored"] = Json(matrix.restored);
  report["trials"] = std::move(trials);
  AddGate(&report, "hung", matrix.hung, "==", 0);
  AddGate(&report, "integrity_failures", matrix.integrity_failures, "==", 0);
  return report;
}

}  // namespace accent
