#include "src/experiments/failure_sweep.h"

#include <iterator>
#include <map>
#include <utility>

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

FuzzScenario FailureSpec(const FuzzScenario& faults, const std::string& workload,
                         TransferStrategy strategy, std::uint64_t seed, bool checkpoint_store) {
  FuzzScenario spec = faults;
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

MechRun RunFailureBaseline(const FuzzScenario& spec, std::uint64_t reference) {
  const MechRun run = RunMech(spec, FaultPlan{}, spec.seed);
  const MechVerdict verdict = Classify(run, reference);
  ACCENT_CHECK(verdict.outcome == FailureOutcome::kCompleted && verdict.integrity_ok)
      << " lossless baseline failed for " << spec.Describe() << ": " << verdict.failure;
  return run;
}

MechTrial RunFailureTrial(const FuzzScenario& spec, const std::string& column,
                          const MechRun& baseline, std::uint64_t reference) {
  MechTrial trial{spec,
                  RunMech(spec, PlantFaults(spec, baseline),
                          FaultSeed(spec.seed, spec.workload, spec.strategy, column)),
                  {}};
  trial.verdict = Classify(trial.run, reference);
  if (!trial.verdict.failure.empty()) {
    ACCENT_LOG(kError) << "failure trial " << spec.workload << "/" << StrategyName(spec.strategy)
                       << "/" << column << ": " << trial.verdict.failure;
  }
  return trial;
}

FailureMatrix RunFailureMatrix(std::uint64_t seed, int threads, bool checkpoint_store) {
  const std::vector<WorkloadSpec>& workloads = RepresentativeWorkloads();
  const std::size_t strategies = std::size(kStrategies);
  const std::vector<std::uint64_t> references =
      ParallelMap(threads, workloads.size(), [&workloads, seed](std::size_t w) {
        return ReferenceChecksum(workloads[w].name, seed);
      });

  // One task per (workload, strategy) group: its lossless baseline first
  // (crash placement), then its columns in order. Groups share nothing, so
  // thread count and scheduling cannot reach any result.
  std::vector<FailureMatrix> groups =
      ParallelMap(threads, workloads.size() * strategies, [&](std::size_t group) {
        const std::size_t w = group / strategies;
        const std::string& workload = workloads[w].name;
        const TransferStrategy strategy = kStrategies[group % strategies];
        FailureMatrix cells;
        cells.baselines.push_back(RunFailureBaseline(
            FailureSpec({}, workload, strategy, seed, checkpoint_store), references[w]));
        for (const FailureScenario& column : FailureScenarios()) {
          cells.trials.push_back(RunFailureTrial(
              FailureSpec(column.faults, workload, strategy, seed, checkpoint_store), column.name,
              cells.baselines.back(), references[w]));
        }
        return cells;
      });

  FailureMatrix matrix;
  for (FailureMatrix& group : groups) {
    matrix.baselines.push_back(std::move(group.baselines.front()));
    for (MechTrial& trial : group.trials) {
      matrix.trials.push_back(std::move(trial));
    }
  }
  return matrix;
}

Json FailureMatrixToJson(const FailureMatrix& matrix) {
  const std::vector<FailureScenario>& columns = FailureScenarios();
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t terminal_faults = 0;
  std::uint64_t hung = 0;
  std::uint64_t integrity_failures = 0;  // completed with wrong contents
  std::uint64_t restored = 0;            // completed via checkpoint restore
  // Terminal cells per strategy x column: the table that shows which
  // residual-dependency cells a checkpoint store flips to survivable. Every
  // cell is present, zeros included, so diffs across runs line up key for
  // key.
  std::map<std::string, std::map<std::string, std::uint64_t>> terminal;
  for (TransferStrategy strategy : kStrategies) {
    for (const FailureScenario& column : columns) {
      terminal[StrategyName(strategy)][column.name] = 0;
    }
  }

  Json trials{Json::Array{}};
  for (std::size_t i = 0; i < matrix.trials.size(); ++i) {
    const MechTrial& trial = matrix.trials[i];
    const std::string& column = columns[i % columns.size()].name;
    const bool done = trial.verdict.outcome == FailureOutcome::kCompleted;
    switch (trial.verdict.outcome) {
      case FailureOutcome::kCompleted:
        ++completed;
        integrity_failures += trial.verdict.integrity_ok ? 0 : 1;
        restored += trial.verdict.restored ? 1 : 0;
        break;
      case FailureOutcome::kAborted:
        ++aborted;
        break;
      case FailureOutcome::kTerminalFault:
        ++terminal_faults;
        ++terminal[StrategyName(trial.spec.strategy)][column];
        break;
      case FailureOutcome::kHung:
        ++hung;
        break;
    }
    const SimTime baseline_finish = matrix.baselines.at(i / columns.size()).finish;
    Json entry = MechRowToJson(trial.spec, trial.run, trial.verdict);
    entry["scenario"] = Json(column);
    entry["slowdown"] = Json(done ? static_cast<double>(trial.run.finish.count()) /
                                        static_cast<double>(baseline_finish.count())
                                  : 0.0);
    trials.Append(std::move(entry));
  }

  Json breakdown;
  for (const auto& [strategy, per_column] : terminal) {
    for (const auto& [column, count] : per_column) {
      breakdown[strategy][column] = Json(count);
    }
  }

  Json report;
  report["bench"] = Json("failure_matrix");
  report["schema_version"] = Json(3);
  report["trial_count"] = Json(static_cast<std::uint64_t>(matrix.trials.size()));
  report["completed"] = Json(completed);
  report["aborted"] = Json(aborted);
  report["terminal_faults"] = Json(terminal_faults);
  report["terminal_breakdown"] = std::move(breakdown);
  report["hung"] = Json(hung);
  report["integrity_failures"] = Json(integrity_failures);
  report["restored"] = Json(restored);
  report["trials"] = std::move(trials);
  AddGate(&report, "hung", hung, "==", 0);
  AddGate(&report, "integrity_failures", integrity_failures, "==", 0);
  return report;
}

}  // namespace accent
