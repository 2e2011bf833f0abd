#include "src/experiments/chain.h"

#include "src/base/check.h"
#include "src/experiments/scenario.h"
#include "src/experiments/sweep.h"
#include "src/metrics/gates.h"

namespace accent {

namespace {

// Far enough out that the baseline's planted crash never fires, yet the
// FaultInjector still attaches — so the baseline and the crashed rerun share
// an identical pre-crash event schedule.
constexpr SimTime kNeverCrash = SimTime{3'000'000'000'000};  // ~35 days

}  // namespace

ChainTrialResult RunChainTrial(const ChainTrialConfig& config) {
  FuzzScenario spec;
  spec.seed = config.seed;
  spec.host_count = 3;
  spec.calibrations = config.calibrations;
  spec.workload = config.workload;
  spec.strategy = config.strategy;
  spec.prefetch = config.prefetch;
  spec.dest = 1;
  spec.remigrate = true;
  spec.redest = 2;
  spec.remigrate_at = config.remigrate_at;
  FaultPlan plan;
  if (config.crash_intermediate) {
    // B (host index 1) carries HostId 2; the crash is permanent.
    plan.crashes.push_back(CrashWindow{HostId(2), config.crash_at, kFaultForever});
  }
  const MechRun run = RunMech(spec, plan, config.seed);

  ChainTrialResult result;
  result.config = config;
  result.drained = run.drained;
  result.hop1_done = run.hop1_done;
  result.hop2_done = run.hop2_done;
  result.hop1 = run.hop1;
  result.hop2 = run.hop2;
  result.finished_at_c = run.finished && run.finish_host == spec.redest;
  if (result.finished_at_c) {
    result.finished = run.finish;
    result.integrity_ok =
        run.checksum == ChainReferenceChecksum(config.workload, config.seed);
  }
  result.collapse_done = run.collapse_done;
  result.collapse = run.collapse;
  result.handoff_pages = run.dest_handoff_pages;
  result.b_requests_after_collapse = run.dest_requests_after_collapse;
  result.b_forwards_after_collapse = run.dest_forwards_after_collapse;
  result.b_objects_after_collapse = run.dest_objects;
  result.b_stubs = run.dest_stubs;
  result.origin_requests_after_collapse = run.origin_requests_after_collapse;
  result.c_imag_faults = run.redest_imag_faults;
  return result;
}

std::vector<ChainTrialConfig> ChainSweepConfigs(const std::string& workload,
                                                std::uint64_t seed) {
  std::vector<ChainTrialConfig> configs;
  ChainTrialConfig config;
  config.workload = workload;
  config.seed = seed;
  for (const TrialConfig& trial : StrategySweepConfigs(workload, seed)) {
    config.strategy = trial.strategy;
    config.prefetch = trial.prefetch;
    configs.push_back(config);
  }

  // Pre-copy, like pure-copy, leaves no IOUs behind (everything arrives
  // physically by resumption), so one cell per workload suffices and the
  // collapse machinery must find nothing to hand off.
  config.strategy = TransferStrategy::kPreCopy;
  config.prefetch = 0;
  configs.push_back(config);
  return configs;
}

std::vector<ChainTrialResult> RunChainTrials(const std::vector<ChainTrialConfig>& configs,
                                             int threads) {
  return ParallelMap(threads, configs.size(),
                     [&configs](std::size_t i) { return RunChainTrial(configs[i]); });
}

ChainCrashResult RunChainCrashTrial(ChainTrialConfig config) {
  ChainCrashResult result;

  // Baseline: same fault plan shape (injector attached, reliable transport
  // on) with the crash parked beyond the horizon, so the rerun's schedule is
  // identical right up to the planted crash. The baseline fixes when the
  // collapse completes.
  config.crash_intermediate = true;
  config.crash_at = kNeverCrash;
  result.baseline = RunChainTrial(config);
  ACCENT_CHECK(result.baseline.drained && result.baseline.finished_at_c)
      << " chain crash baseline failed for " << config.workload;
  ACCENT_CHECK(result.baseline.collapse_done)
      << " chain crash baseline never collapsed for " << config.workload
      << " (" << StrategyName(config.strategy) << ")";

  // Kill B for good just after its chain collapsed. The process at C must
  // finish with intact contents: its residual dependency moved to A.
  config.crash_at = result.baseline.collapse.collapsed_at + Ms(1);
  result.crashed = RunChainTrial(config);
  result.survived = result.crashed.drained && result.crashed.finished_at_c &&
                    result.crashed.integrity_ok;
  return result;
}

Json ChainSweepToJson(const std::vector<ChainTrialResult>& trials,
                      const std::vector<ChainCrashResult>& crash_trials) {
  std::uint64_t collapses = 0;
  std::uint64_t b_requests_total = 0;
  std::uint64_t b_forwards_total = 0;
  std::uint64_t b_objects_total = 0;
  std::uint64_t integrity_failures = 0;
  std::uint64_t hung = 0;

  Json trial_array{Json::Array{}};
  for (const ChainTrialResult& trial : trials) {
    if (trial.collapse_done) {
      ++collapses;
    }
    b_requests_total += trial.b_requests_after_collapse;
    b_forwards_total += trial.b_forwards_after_collapse;
    b_objects_total += trial.b_objects_after_collapse;
    if (!trial.drained || !trial.finished_at_c) {
      ++hung;
    } else if (!trial.integrity_ok) {
      ++integrity_failures;
    }

    Json entry;
    entry["workload"] = Json(trial.config.workload);
    entry["strategy"] = Json(StrategyName(trial.config.strategy));
    entry["prefetch"] = Json(trial.config.prefetch);
    entry["hop1_downtime_us"] = Json(static_cast<std::int64_t>(trial.Hop1Downtime().count()));
    entry["hop2_downtime_us"] = Json(static_cast<std::int64_t>(trial.Hop2Downtime().count()));
    entry["collapse_done"] = Json(trial.collapse_done);
    entry["objects_handed_off"] = Json(trial.collapse.objects_handed_off);
    entry["rebinds_acked"] = Json(trial.collapse.rebinds_acked);
    entry["segments_rebound"] = Json(trial.collapse.segments_rebound);
    entry["collapsed_at_us"] =
        Json(static_cast<std::int64_t>(trial.collapse.collapsed_at.count()));
    entry["handoff_pages"] = Json(trial.handoff_pages);
    entry["b_requests_after_collapse"] = Json(trial.b_requests_after_collapse);
    entry["b_forwards_after_collapse"] = Json(trial.b_forwards_after_collapse);
    entry["b_objects_after_collapse"] = Json(trial.b_objects_after_collapse);
    entry["b_stubs"] = Json(static_cast<std::uint64_t>(trial.b_stubs));
    entry["origin_requests_after_collapse"] = Json(trial.origin_requests_after_collapse);
    entry["c_imag_faults"] = Json(trial.c_imag_faults);
    entry["integrity_ok"] = Json(trial.integrity_ok);
    entry["finished_us"] = Json(static_cast<std::int64_t>(trial.finished.count()));
    trial_array.Append(std::move(entry));
  }

  bool all_crashes_survived = true;
  Json crash_array{Json::Array{}};
  for (const ChainCrashResult& crash : crash_trials) {
    all_crashes_survived = all_crashes_survived && crash.survived;
    Json entry;
    entry["workload"] = Json(crash.crashed.config.workload);
    entry["strategy"] = Json(StrategyName(crash.crashed.config.strategy));
    entry["crash_at_us"] =
        Json(static_cast<std::int64_t>(crash.crashed.config.crash_at.count()));
    entry["survived"] = Json(crash.survived);
    entry["finished_us"] = Json(static_cast<std::int64_t>(crash.crashed.finished.count()));
    crash_array.Append(std::move(entry));
  }

  Json report;
  report["bench"] = Json("chain_sweep");
  report["schema_version"] = Json(1);
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
