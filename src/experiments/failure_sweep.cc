#include "src/experiments/failure_sweep.h"

#include <optional>
#include <utility>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/base/page_data.h"
#include "src/base/thread_pool.h"
#include "src/experiments/sweep.h"
#include "src/experiments/testbed.h"
#include "src/metrics/gates.h"
#include "src/workloads/workload.h"

namespace accent {

namespace {

// Trials run at most this much simulated time past the migration request;
// the longest workload (Chess, 480 s of compute) plus the 600 s abort
// backstop fits comfortably.
constexpr SimDuration kFailureHorizon = Sec(3600.0);

const TransferStrategy kStrategies[] = {TransferStrategy::kPureCopy,
                                        TransferStrategy::kPureIou,
                                        TransferStrategy::kResidentSet,
                                        TransferStrategy::kPreCopy};

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

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
  return SplitMix(seed ^ SplitMix(Fnv(workload)) ^
                  SplitMix(static_cast<std::uint64_t>(strategy) + 1) ^ SplitMix(Fnv(scenario)));
}

// Order-independent-of-nothing: pages are visited in ascending order, so the
// combined hash is a deterministic function of the touched-page contents.
std::uint64_t TouchedChecksum(const Process& proc, const std::set<PageIndex>& touches) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  for (PageIndex page : touches) {
    mix(page);
    mix(proc.space()->HasPrivatePage(page) ? PageIntegrityChecksum(proc.space()->ReadPage(page)) : 0);
  }
  return h;
}

// One migration attempt on a private testbed. Everything the classifier
// needs comes back in this bundle; nothing here CHECKs completion.
struct MigrationRun {
  bool drained = false;
  bool done = false;
  MigrationRecord record;
  // The processes themselves die with the trial's testbed, so everything
  // the classifier reads is snapshotted here before RunOneMigration
  // returns. "remote" is the incarnation inserted at the destination,
  // "local" the one re-inserted at the source by a rollback.
  bool remote_inserted = false;
  bool remote_done = false;
  bool remote_faulted = false;
  SimTime remote_finish{};
  bool local_inserted = false;
  bool local_done = false;
  SimTime local_finish{};
  std::set<PageIndex> planned_touches;
  NetMsgStats netmsg;          // both hosts summed
  std::uint64_t deliveries_lost = 0;
  std::uint64_t restores = 0;  // checkpoint restores, summed over managers
  // Both sides are checksummed: after a destination crash the remote twin
  // may have been inserted (and then starved) before the source rolled
  // back, and the classifier must judge whichever incarnation is
  // authoritative for the outcome it reports.
  std::uint64_t remote_checksum = 0;
  std::uint64_t local_checksum = 0;
};

MigrationRun RunOneMigration(const TestbedConfig& testbed_config, const std::string& workload,
                             TransferStrategy strategy, std::uint64_t seed) {
  Testbed bed(testbed_config);
  MigrationRun run;

  WorkloadInstance instance = BuildWorkload(WorkloadByName(workload), bed.host(0), seed);
  run.planned_touches = instance.planned_touches;
  Process* proc = instance.process.get();

  const PortId owned_port = bed.fabric().AllocatePort(bed.host(0)->id, nullptr, "proc-owned");
  proc->AttachReceiveRight(owned_port);
  bed.manager(0)->RegisterLocal(proc);

  Process* remote = nullptr;
  Process* local = nullptr;
  bed.manager(1)->set_on_insert([&remote](Process* inserted) { remote = inserted; });
  bed.manager(0)->set_on_insert([&local](Process* inserted) { local = inserted; });

  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), strategy,
                          [&run](const MigrationRecord& record) {
                            run.record = record;
                            run.done = true;
                          });

  run.drained = bed.RunGuarded(kFailureHorizon);

  const NetMsgStats& a = bed.netmsg(0)->stats();
  const NetMsgStats& b = bed.netmsg(1)->stats();
  run.netmsg.fragments_retransmitted = a.fragments_retransmitted + b.fragments_retransmitted;
  run.netmsg.retransmit_bytes = a.retransmit_bytes + b.retransmit_bytes;
  run.netmsg.duplicates_suppressed = a.duplicates_suppressed + b.duplicates_suppressed;
  run.netmsg.transfers_dead_lettered = a.transfers_dead_lettered + b.transfers_dead_lettered;
  run.deliveries_lost = bed.network().deliveries_lost();
  for (int i = 0; i < bed.host_count(); ++i) {
    run.restores += bed.manager(i)->restores_completed();
  }

  // Snapshot (and checksum) before the testbed and its processes die.
  if (remote != nullptr) {
    run.remote_inserted = true;
    run.remote_done = remote->done();
    run.remote_faulted = remote->faulted();
    run.remote_finish = remote->finish_time();
    run.remote_checksum = TouchedChecksum(*remote, run.planned_touches);
  }
  if (local != nullptr) {
    run.local_inserted = true;
    run.local_done = local->done();
    run.local_finish = local->finish_time();
    run.local_checksum = TouchedChecksum(*local, run.planned_touches);
  }
  return run;
}

// Checkpoint mode adds a third host carrying the store, out of every crash
// window (crashes target HostId 1 and 2 only).
void ApplySweepOptions(TestbedConfig* config, const FailureSweepOptions& options) {
  if (!options.checkpoint_store) {
    return;
  }
  config->host_count = 3;
  config->checkpoint_store = true;
  config->checkpoint_host = 3;
}

}  // namespace

const char* FailureOutcomeName(FailureOutcome outcome) {
  switch (outcome) {
    case FailureOutcome::kCompleted:
      return "completed";
    case FailureOutcome::kAborted:
      return "aborted";
    case FailureOutcome::kTerminalFault:
      return "terminal_fault";
    case FailureOutcome::kHung:
      return "hung";
  }
  return "unknown";
}

const std::vector<FailureScenario>& FailureScenarios() {
  static const std::vector<FailureScenario> scenarios = [] {
    std::vector<FailureScenario> list;

    FailureScenario drop2;
    drop2.name = "drop2";
    drop2.drop = 0.02;
    list.push_back(drop2);

    // The acceptance recipe: 5% drop, 5% duplication, jitter wide enough to
    // reorder fragments. Every cell must complete with intact contents.
    FailureScenario lossy5;
    lossy5.name = "lossy5";
    lossy5.drop = 0.05;
    lossy5.duplicate = 0.05;
    lossy5.delay = 0.10;
    lossy5.reorder = 0.25;
    list.push_back(lossy5);

    FailureScenario dest_crash;
    dest_crash.name = "dest_crash";
    dest_crash.crash_dest = true;
    list.push_back(dest_crash);

    FailureScenario source_crash;
    source_crash.name = "source_crash";
    source_crash.crash_source = true;
    list.push_back(source_crash);

    return list;
  }();
  return scenarios;
}

FailureBaseline RunFailureBaseline(const std::string& workload, TransferStrategy strategy,
                                   std::uint64_t seed, const FailureSweepOptions& options) {
  // Lossless and *unreliable*: the reference is the paper's original
  // fire-and-forget path, so slowdowns charge the retry protocol too.
  TestbedConfig config;
  ApplySweepOptions(&config, options);
  MigrationRun run = RunOneMigration(config, workload, strategy, seed);
  ACCENT_CHECK(run.drained && run.done && !run.record.aborted)
      << " lossless baseline failed for " << workload;
  ACCENT_CHECK(run.remote_done) << " lossless baseline did not finish for " << workload;

  FailureBaseline baseline;
  baseline.migration = run.record;
  baseline.finished = run.remote_finish;
  baseline.remote_exec = baseline.finished - run.record.resumed;
  baseline.touched_checksum = run.remote_checksum;
  return baseline;
}

FailureTrialResult RunFailureTrial(const std::string& workload, TransferStrategy strategy,
                                   const FailureScenario& scenario,
                                   const FailureBaseline& baseline, std::uint64_t seed,
                                   const FailureSweepOptions& options) {
  TestbedConfig config;
  ApplySweepOptions(&config, options);
  config.fault_seed = FaultSeed(seed, workload, strategy, scenario.name);
  config.fault_plan.drop = scenario.drop;
  config.fault_plan.duplicate = scenario.duplicate;
  config.fault_plan.delay = scenario.delay;
  config.fault_plan.reorder = scenario.reorder;
  if (scenario.crash_dest) {
    // Mid-transfer: halfway between excision and the baseline's resumption.
    const SimTime mid = baseline.migration.excise_done +
                        (baseline.migration.resumed - baseline.migration.excise_done) / 2;
    config.fault_plan.crashes.push_back(CrashWindow{HostId(2), mid, kFaultForever});
  }
  if (scenario.crash_source) {
    // 30% into the baseline's remote execution: copy-on-reference fetches
    // are typically still outstanding (except for pure-copy, which carries
    // no residual dependency and must survive this).
    const SimTime mid = baseline.migration.resumed + (baseline.remote_exec * 3) / 10;
    config.fault_plan.crashes.push_back(CrashWindow{HostId(1), mid, kFaultForever});
  }
  config.reliable_transport = true;  // even for crash-only plans

  MigrationRun run = RunOneMigration(config, workload, strategy, seed);

  FailureTrialResult result;
  result.workload = workload;
  result.strategy = strategy;
  result.scenario = scenario.name;
  result.fragments_retransmitted = run.netmsg.fragments_retransmitted;
  result.retransmit_bytes = run.netmsg.retransmit_bytes;
  result.duplicates_suppressed = run.netmsg.duplicates_suppressed;
  result.transfers_dead_lettered = run.netmsg.transfers_dead_lettered;
  result.deliveries_lost = run.deliveries_lost;

  if (!run.drained) {
    result.outcome = FailureOutcome::kHung;
    return result;
  }
  if (!run.done) {
    // The queue drained but the migration neither completed nor aborted:
    // treat as hung — the abort timer should make this impossible.
    ACCENT_LOG(kError) << "failure trial drained without a migration verdict (" << workload
                       << ", " << StrategyName(strategy) << ", " << scenario.name << ")";
    result.outcome = FailureOutcome::kHung;
    return result;
  }

  if (run.record.aborted) {
    result.outcome = FailureOutcome::kAborted;
    result.rolled_back = run.record.rolled_back;
    result.abort_reason = run.record.abort_reason;
    if (run.local_done) {
      result.finished = run.local_finish;
      // A rolled-back process reruns the same trace over the same pages;
      // its contents must match the lossless destination's.
      result.integrity_ok = run.local_checksum == baseline.touched_checksum;
    }
    return result;
  }

  if (run.remote_done) {
    result.outcome = FailureOutcome::kCompleted;
    result.finished = run.remote_finish;
    result.restored = run.restores > 0;
    result.integrity_ok = run.remote_checksum == baseline.touched_checksum;
    if (baseline.finished.count() > 0) {
      result.slowdown = static_cast<double>(result.finished.count()) /
                        static_cast<double>(baseline.finished.count());
    }
    return result;
  }

  // Migration handshake completed but the process never finished: a
  // residual dependency on a dead host was reported as a terminal fault.
  result.outcome = FailureOutcome::kTerminalFault;
  if (run.remote_inserted) {
    ACCENT_CHECK(run.remote_faulted) << " remote process neither done nor faulted after drain";
  }
  return result;
}

FailureMatrix RunFailureMatrix(std::uint64_t seed, int threads,
                               const FailureSweepOptions& options) {
  if (threads <= 0) {
    threads = SweepThreadCount();
  }
  const std::vector<WorkloadSpec>& workloads = RepresentativeWorkloads();
  const std::vector<FailureScenario>& scenarios = FailureScenarios();
  const std::size_t strategies = sizeof(kStrategies) / sizeof(kStrategies[0]);
  const std::size_t groups = workloads.size() * strategies;

  // One slot per trial, filled by (workload, strategy) group: a group runs
  // its lossless baseline first (crash placement + integrity reference),
  // then its scenarios in order. Groups share nothing, so thread count and
  // scheduling cannot reach any result.
  std::vector<std::optional<FailureTrialResult>> slots(groups * scenarios.size());
  ParallelFor(threads, groups, [&](std::size_t group) {
    const std::string& workload = workloads[group / strategies].name;
    const TransferStrategy strategy = kStrategies[group % strategies];
    const FailureBaseline baseline = RunFailureBaseline(workload, strategy, seed, options);
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      slots[group * scenarios.size() + s] =
          RunFailureTrial(workload, strategy, scenarios[s], baseline, seed, options);
    }
  });

  FailureMatrix matrix;
  matrix.trials.reserve(slots.size());
  for (std::optional<FailureTrialResult>& slot : slots) {
    ACCENT_CHECK(slot.has_value()) << " failure trial slot never filled";
    const FailureTrialResult& trial = *slot;
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
    matrix.trials.push_back(std::move(*slot));
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
