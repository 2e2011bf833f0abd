#include "src/experiments/chain.h"

#include "src/base/check.h"
#include "src/experiments/sweep.h"
#include "src/metrics/gates.h"

namespace accent {

namespace {

bool FinishedAtC(const MechTrial& trial) {
  return trial.run.drained && trial.run.finished && trial.run.finish_host == trial.spec.redest;
}

}  // namespace

std::vector<FuzzScenario> ChainSweepSpecs(const std::string& workload, std::uint64_t seed) {
  std::vector<FuzzScenario> specs = PaperGridSpecs(workload, seed);
  // Pre-copy, like pure-copy, leaves no IOUs behind (everything arrives
  // physically by resumption), so one cell per workload suffices and the
  // collapse machinery must find nothing to hand off.
  specs.push_back(specs.front());
  specs.back().strategy = TransferStrategy::kPreCopy;
  for (FuzzScenario& spec : specs) {
    spec.host_count = 3;
    spec.remigrate = true;
    spec.redest = 2;
  }
  return specs;
}

std::vector<MechTrial> RunChainCrashTrials(std::vector<FuzzScenario> specs, int threads) {
  for (FuzzScenario& spec : specs) {
    spec.crash_dest_at = kParkedCrash;
  }
  const std::vector<MechTrial> baselines = RunMechTrials(specs, threads);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MechTrial& baseline = baselines[i];
    ACCENT_CHECK(FinishedAtC(baseline)) << " chain crash baseline failed for "
                                        << baseline.spec.Describe();
    ACCENT_CHECK(baseline.run.collapse_done)
        << " chain crash baseline never collapsed for " << baseline.spec.Describe();
    // Kill B for good just after its chain collapsed. The process at C must
    // finish with intact contents: its residual dependency moved to A.
    specs[i].crash_dest_at = baseline.run.collapse.collapsed_at + Ms(1);
  }
  return RunMechTrials(specs, threads);
}

Json ChainSweepToJson(const std::vector<MechTrial>& trials,
                      const std::vector<MechTrial>& crash_trials) {
  std::uint64_t collapses = 0;
  std::uint64_t b_requests_total = 0;
  std::uint64_t b_forwards_total = 0;
  std::uint64_t b_objects_total = 0;
  std::uint64_t integrity_failures = 0;
  std::uint64_t hung = 0;

  Json trial_array{Json::Array{}};
  for (const MechTrial& trial : trials) {
    const MechRun& run = trial.run;
    collapses += run.collapse_done ? 1 : 0;
    b_requests_total += run.dest_requests_after_collapse;
    b_forwards_total += run.dest_forwards_after_collapse;
    b_objects_total += run.dest_objects;
    if (!FinishedAtC(trial)) {
      ++hung;
    } else if (!trial.verdict.integrity_ok) {
      ++integrity_failures;
    }
    trial_array.Append(MechRowToJson(trial.spec, run, trial.verdict));
  }

  bool all_crashes_survived = true;
  Json crash_array{Json::Array{}};
  for (const MechTrial& crash : crash_trials) {
    const bool survived = FinishedAtC(crash) && crash.verdict.integrity_ok;
    all_crashes_survived = all_crashes_survived && survived;
    Json entry = MechRowToJson(crash.spec, crash.run, crash.verdict);
    entry["crash_at_us"] = Json(static_cast<std::int64_t>(crash.spec.crash_dest_at.count()));
    entry["survived"] = Json(survived);
    crash_array.Append(std::move(entry));
  }

  Json report;
  report["bench"] = Json("chain_sweep");
  report["schema_version"] = Json(2);
  report["trial_count"] = Json(static_cast<std::uint64_t>(trials.size()));
  report["collapses"] = Json(collapses);
  report["b_requests_after_collapse_total"] = Json(b_requests_total);
  report["b_forwards_after_collapse_total"] = Json(b_forwards_total);
  report["b_objects_after_collapse_total"] = Json(b_objects_total);
  report["integrity_failures"] = Json(integrity_failures);
  report["hung"] = Json(hung);
  report["crash_trial_count"] = Json(static_cast<std::uint64_t>(crash_trials.size()));
  report["b_crash_survived"] = Json(all_crashes_survived);
  report["trials"] = std::move(trial_array);
  report["crash_trials"] = std::move(crash_array);
  AddGate(&report, "b_requests_after_collapse_total", b_requests_total, "==", 0);
  AddGate(&report, "b_forwards_after_collapse_total", b_forwards_total, "==", 0);
  AddGate(&report, "b_objects_after_collapse_total", b_objects_total, "==", 0);
  AddGate(&report, "integrity_failures", integrity_failures, "==", 0);
  AddGate(&report, "hung", hung, "==", 0);
  AddGate(&report, "b_crash_survived", all_crashes_survived, "==", true);
  return report;
}

}  // namespace accent
