#include "src/experiments/chain.h"

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

// Two migrations plus remote execution; the 600 s abort backstop and the
// longest workload both fit with room to spare.
constexpr SimDuration kChainHorizon = Sec(3600.0);

// Far enough out that the baseline's planted crash never fires, yet the
// FaultInjector still attaches — so the baseline and the crashed rerun share
// an identical pre-crash event schedule.
constexpr SimTime kNeverCrash = SimTime{3'000'000'000'000};  // ~35 days

}  // namespace

// Same fold as the failure sweep's TouchedChecksum. A chain's final
// incarnation does not hold every planned page privately: pages touched only
// at an intermediate hop stay owed to the backing chain, so they are
// resolved through their backer object via the (simulation-global) segment
// table — which also checks that a collapse actually moved the bytes, not
// just the references.
std::uint64_t ObservableChecksum(const AddressSpace& space, const SegmentTable& segments,
                                 const std::set<PageIndex>& touches) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  for (PageIndex page : touches) {
    mix(page);
    if (space.HasPrivatePage(page)) {
      mix(PageIntegrityChecksum(space.ReadPage(page)));
    } else if (space.ClassOf(PageBase(page)) == MemClass::kImag) {
      const AddressSpace::ImagTarget target = space.ImagTargetOf(PageBase(page));
      Segment* backer = segments.Find(target.iou.segment);
      mix(backer != nullptr ? PageIntegrityChecksum(backer->ReadPage(PageOf(target.backer_offset)))
                            : 0);
    } else {
      mix(PageIntegrityChecksum(space.ReadPage(page)));
    }
  }
  return h;
}

// One lossless single-hop pure-copy migration of the same workload
// instance, run to completion at the destination (the failure sweep's
// baseline methodology). BuildWorkload is bit-deterministic per
// (spec, seed), so any later run must reproduce these page contents
// whatever the strategy, topology or calibration.
std::uint64_t ChainReferenceChecksum(const std::string& workload, std::uint64_t seed) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(WorkloadByName(workload), bed.host(0), seed);
  Process* proc = instance.process.get();
  bed.manager(0)->RegisterLocal(proc);

  Process* remote = nullptr;
  bed.manager(1)->set_on_insert([&remote](Process* inserted) { remote = inserted; });
  bool done = false;
  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), TransferStrategy::kPureCopy,
                          [&done](const MigrationRecord&) { done = true; });
  bed.sim().Run();
  ACCENT_CHECK(done && remote != nullptr && remote->done())
      << " reference migration of " << workload << " did not finish";
  return ObservableChecksum(*remote->space(), bed.segments(), instance.planned_touches);
}

ChainTrialResult RunChainTrial(const ChainTrialConfig& config) {
  const std::uint64_t reference = ChainReferenceChecksum(config.workload, config.seed);

  TestbedConfig testbed_config;
  testbed_config.host_count = 3;
  testbed_config.calibrations = config.calibrations;
  if (config.crash_intermediate) {
    // Host index 1 (the intermediary B) carries HostId 2; the crash is
    // permanent. Reliable transport comes with the non-trivial plan.
    testbed_config.fault_plan.crashes.push_back(
        CrashWindow{HostId(2), config.crash_at, kFaultForever});
    testbed_config.fault_seed = config.seed;
  }
  Testbed bed(testbed_config);
  bed.SetPrefetch(config.prefetch);

  ChainTrialResult result;
  result.config = config;

  WorkloadInstance instance = BuildWorkload(WorkloadByName(config.workload), bed.host(0),
                                            config.seed);
  Process* proc = instance.process.get();
  const PortId owned_port = bed.fabric().AllocatePort(bed.host(0)->id, nullptr, "proc-owned");
  proc->AttachReceiveRight(owned_port);
  bed.manager(0)->RegisterLocal(proc);

  Process* at_c = nullptr;
  bed.manager(2)->set_on_insert([&at_c](Process* inserted) { at_c = inserted; });

  // Post-collapse counters are deltas against a snapshot taken the moment
  // the collapse completes at B. Trials whose chain never forms (pure-copy
  // carries no IOUs, so there is nothing to collapse) snapshot at hop-2
  // completion instead: "after collapse" then simply means "after the
  // re-migration handshake".
  bool have_snapshot = false;
  std::uint64_t b_requests_snap = 0;
  std::uint64_t b_forwards_snap = 0;
  std::uint64_t origin_requests_snap = 0;
  auto snapshot = [&]() {
    b_requests_snap = bed.netmsg(1)->backer().requests_served();
    b_forwards_snap = bed.netmsg(1)->backer().requests_forwarded();
    origin_requests_snap = bed.netmsg(0)->backer().requests_served();
    have_snapshot = true;
  };

  bed.manager(1)->set_on_collapse([&](const ChainCollapseStats& stats) {
    result.collapse_done = true;
    result.collapse = stats;
    snapshot();
  });

  // Hop 2 arms itself when the process lands at B: execute remigrate_at of
  // the trace remaining there, then move on to C under the same strategy.
  bed.manager(1)->set_on_insert([&](Process* at_b) {
    const std::size_t pc = at_b->trace_pc();
    const std::size_t size = at_b->trace()->size();
    const std::size_t span = size > pc ? size - pc : 0;
    std::size_t target =
        pc + static_cast<std::size_t>(static_cast<double>(span) * config.remigrate_at);
    if (target <= pc) {
      target = pc + 1;
    }
    if (target >= size && size > 0) {
      target = size - 1;  // at worst, just before the terminate op
    }
    at_b->SuspendAt(target, [&, at_b]() {
      bed.manager(1)->Migrate(at_b, bed.manager(2)->port(), config.strategy,
                              [&](const MigrationRecord& record) {
                                result.hop2 = record;
                                result.hop2_done = true;
                                if (!have_snapshot) {
                                  snapshot();
                                }
                              });
    });
  });

  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), config.strategy,
                          [&](const MigrationRecord& record) {
                            result.hop1 = record;
                            result.hop1_done = true;
                          });

  result.drained = bed.RunGuarded(kChainHorizon);

  result.finished_at_c = at_c != nullptr && at_c->done();
  if (result.finished_at_c) {
    result.finished = at_c->finish_time();
    result.integrity_ok =
        ObservableChecksum(*at_c->space(), bed.segments(), instance.planned_touches) ==
        reference;
  }

  SegmentBacker& b = bed.netmsg(1)->backer();
  if (have_snapshot) {
    result.b_requests_after_collapse = b.requests_served() - b_requests_snap;
    result.b_forwards_after_collapse = b.requests_forwarded() - b_forwards_snap;
    result.origin_requests_after_collapse =
        bed.netmsg(0)->backer().requests_served() - origin_requests_snap;
  }
  result.b_objects_after_collapse = b.object_count();
  result.b_stubs = b.stub_count();
  result.handoff_pages = b.handoff_pages_sent();
  result.c_imag_faults = bed.pager(2)->stats().imag_faults;
  return result;
}

std::vector<ChainTrialConfig> ChainSweepConfigs(const std::string& workload,
                                                std::uint64_t seed) {
  std::vector<ChainTrialConfig> configs;
  ChainTrialConfig base;
  base.workload = workload;
  base.seed = seed;

  ChainTrialConfig pure_copy = base;
  pure_copy.strategy = TransferStrategy::kPureCopy;
  configs.push_back(pure_copy);

  for (TransferStrategy strategy :
       {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
    for (std::uint32_t prefetch : kPaperPrefetchValues) {
      ChainTrialConfig config = base;
      config.strategy = strategy;
      config.prefetch = prefetch;
      configs.push_back(config);
    }
  }

  // Pre-copy, like pure-copy, leaves no IOUs behind (everything arrives
  // physically by resumption), so one cell per workload suffices and the
  // collapse machinery must find nothing to hand off.
  ChainTrialConfig precopy = base;
  precopy.strategy = TransferStrategy::kPreCopy;
  configs.push_back(precopy);
  return configs;
}

std::vector<ChainTrialResult> RunChainTrials(const std::vector<ChainTrialConfig>& configs,
                                             int threads) {
  if (threads <= 0) {
    threads = SweepThreadCount();
  }
  // One slot per trial; every trial owns a private Testbed, so thread count
  // and scheduling cannot reach any result.
  std::vector<std::optional<ChainTrialResult>> slots(configs.size());
  ParallelFor(threads, configs.size(),
              [&](std::size_t i) { slots[i] = RunChainTrial(configs[i]); });

  std::vector<ChainTrialResult> results;
  results.reserve(slots.size());
  for (std::optional<ChainTrialResult>& slot : slots) {
    ACCENT_CHECK(slot.has_value()) << " chain trial slot never filled";
    results.push_back(std::move(*slot));
  }
  return results;
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
