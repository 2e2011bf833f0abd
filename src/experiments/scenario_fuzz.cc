#include "src/experiments/scenario_fuzz.h"

#include <sstream>
#include <utility>

#include "src/base/logging.h"
#include "src/base/page_ref.h"
#include "src/base/rng.h"
#include "src/experiments/cluster.h"
#include "src/experiments/sweep.h"
#include "src/metrics/gates.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// The calibration menus. Identity is always on the menu so homogeneous
// corners stay in the fuzzed space.
constexpr double kCpuMenu[] = {0.5, 1.0, 2.0, 4.0};
constexpr double kLatencyMenu[] = {0.5, 1.0, 2.0};
constexpr double kBandwidthMenu[] = {0.5, 1.0, 2.0};

// The fleet-scale half of a scenario: same topology, calibrations and
// strategy, sized to finish quickly.
ClusterConfig MakeFleetConfig(const FuzzScenario& sc) {
  ClusterConfig config;
  config.host_count = sc.host_count;
  config.seed = sc.seed;
  config.duration = Sec(15.0);
  config.initial_processes_per_host = 3;
  config.arrivals_per_host_per_sec = 0.25;
  config.mean_service_sec = 5.0;
  config.calibrations = sc.calibrations;
  config.policy.strategy = sc.strategy;
  config.policy.sample_period = Sec(1.0);
  config.policy.imbalance_threshold = 2;
  config.content_cache = sc.content_cache;
  config.content_cache_pages = sc.content_cache_pages;
  return config;
}

}  // namespace

FuzzScenario MakeScenario(std::uint64_t seed) {
  FuzzScenario sc;
  sc.seed = seed;
  Rng root(SplitMix64(seed ^ 0x5cea4a10f0220000ull));
  Rng topo = root.Fork(1);
  Rng work = root.Fork(2);
  Rng fault = root.Fork(3);

  sc.host_count = static_cast<int>(2 + topo.NextBelow(7));  // 2..8
  sc.calibrations.resize(static_cast<std::size_t>(sc.host_count));
  for (HostCalibration& cal : sc.calibrations) {
    if (topo.NextBool(0.5)) {
      cal.cpu_multiplier = kCpuMenu[topo.NextBelow(4)];
      cal.wire_latency_multiplier = kLatencyMenu[topo.NextBelow(3)];
      cal.wire_bandwidth_multiplier = kBandwidthMenu[topo.NextBelow(3)];
      cal.diskless = topo.NextBool(0.15);
    }
  }

  const std::vector<WorkloadSpec>& workloads = RepresentativeWorkloads();
  sc.workload = workloads[work.NextBelow(workloads.size())].name;
  sc.strategy = static_cast<TransferStrategy>(work.NextBelow(4));
  sc.prefetch = static_cast<std::uint32_t>(work.NextBelow(5));
  sc.dest = static_cast<int>(1 + work.NextBelow(static_cast<std::uint64_t>(sc.host_count - 1)));
  if (sc.host_count >= 3 && work.NextBool(0.4)) {
    sc.remigrate = true;
    sc.remigrate_at = 0.25 + 0.5 * work.NextDouble();
    // Third host: neither the origin nor the first-hop destination.
    std::vector<int> candidates;
    for (int i = 1; i < sc.host_count; ++i) {
      if (i != sc.dest) {
        candidates.push_back(i);
      }
    }
    sc.redest = candidates[work.NextBelow(candidates.size())];
  }

  if (fault.NextBool(0.7)) {
    sc.drop = 0.05 * fault.NextDouble();
    sc.duplicate = 0.05 * fault.NextDouble();
    sc.delay = 0.10 * fault.NextDouble();
    sc.reorder = fault.NextBool(0.5) ? 0.25 * fault.NextDouble() : 0.0;
  }
  sc.partition_transfer = fault.NextBool(0.2);
  const double crash_draw = fault.NextDouble();
  if (crash_draw < 0.15) {
    sc.crash_dest = true;
  } else if (crash_draw < 0.30) {
    sc.crash_source = true;
  }

  // Content cache, from its own fork so the topology/workload/fault streams
  // stay byte-identical to the cache-oblivious generator. The capacity menu
  // reaches down to 64 pages so eviction pressure is in the fuzzed space.
  Rng cache = root.Fork(4);
  if (cache.NextBool(0.5)) {
    constexpr std::int64_t kCacheMenu[] = {64, 512, 4096};
    sc.content_cache = true;
    sc.content_cache_pages = kCacheMenu[cache.NextBelow(3)];
  }

  // Durable checkpoint store, again on a fresh fork (legacy streams stay
  // byte-identical). The store needs a spindle somewhere, so an (unlikely)
  // all-diskless topology forces it off rather than CHECK-failing the bed.
  Rng ckpt = root.Fork(5);
  if (ckpt.NextBool(0.5)) {
    bool any_spindle = false;
    for (const HostCalibration& cal : sc.calibrations) {
      any_spindle = any_spindle || !cal.diskless;
    }
    sc.checkpoint = any_spindle;
  }
  return sc;
}

FuzzScenarioResult RunScenario(std::uint64_t seed) { return RunScenario(MakeScenario(seed)); }

FuzzScenarioResult RunScenario(const FuzzScenario& scenario) {
  FuzzScenarioResult result;
  result.scenario = scenario;
  std::ostringstream failure;

  // Content reference: page contents never depend on migration, topology,
  // calibration or faults, so the process run unmigrated at home pins them.
  const std::uint64_t reference = ReferenceChecksum(scenario.workload, scenario.seed);

  // Lossless baseline on the scenario's own topology + calibrations:
  // supplies the phase boundaries crash/partition windows anchor to, and
  // proves the scenario completes when the wire behaves.
  MechRun baseline = RunMech(scenario, FaultPlan{}, scenario.seed);
  if (!baseline.drained || !baseline.hop1_done || baseline.hop1.aborted ||
      !baseline.finished) {
    result.outcome = FailureOutcome::kHung;
    result.hang = !baseline.drained;
    failure << "baseline did not complete;";
    result.failure = failure.str();
    result.run = std::move(baseline);
    result.verdict.failure = result.failure;
    return result;
  }
  if (baseline.checksum != reference) {
    failure << "baseline integrity mismatch;";
  }

  result.run = scenario.faulty() ? RunMech(scenario, PlantFaults(scenario, baseline),
                                           SplitMix64(scenario.seed ^ 0xfa071ull))
                                 : baseline;
  const MechRun& run = result.run;
  result.remigrated = run.remigrate_fired;

  result.verdict = Classify(run, reference);
  const MechVerdict& verdict = result.verdict;
  result.outcome = verdict.outcome;
  result.rolled_back = verdict.rolled_back;
  result.integrity_ok = verdict.integrity_ok;
  result.hang = !run.drained;
  failure << verdict.failure;

  // ---- backer balance (crash-free scenarios only: a crashed host cannot
  // be expected to have settled its books) --------------------------------
  const bool crash_free = !scenario.crash_dest && !scenario.crash_source;
  if (crash_free && run.drained) {
    if (result.outcome == FailureOutcome::kCompleted && !run.nonorigin_objects_clear) {
      result.backer_balanced = false;
      failure << "backer objects stranded:" << run.backer_detail << ";";
    }
    if (run.duplicate_deaths != 0) {
      result.backer_balanced = false;
      failure << "duplicate deaths=" << run.duplicate_deaths << ";";
    }
  }

  // ---- dedup identity ----------------------------------------------------
  // Any page the cache plane served must have been byte-identical to what
  // the origin would have served: every layer of the walk hash-verifies and
  // counts mismatches, and a single count fails the scenario. (Stale serves
  // — a hit resurrecting a retired backer stub's page — additionally trip
  // the integrity/backer oracles above, because the destination would read
  // bytes the reference run never produced.) With the cache off, the walk
  // must never engage.
  std::uint64_t dedup_mismatches = run.dedup_mismatches;
  std::uint64_t cache_activity = run.cache_activity;
  if (scenario.faulty()) {
    // The lossless baseline ran separately; its counters are not in `run`.
    dedup_mismatches += baseline.dedup_mismatches;
    cache_activity += baseline.cache_activity;
  }
  if (dedup_mismatches != 0) {
    result.dedup_ok = false;
    failure << "dedup identity violation (hash mismatches=" << dedup_mismatches << ");";
  }

  // ---- checkpoint-plane oracle -------------------------------------------
  // Store-off scenarios must never touch the checkpoint plane; store-on
  // restores are already held to the content reference by the integrity
  // oracle (a restored completion with wrong bytes fails above).
  result.checkpoints = run.checkpoints;
  result.restores = run.restores;
  if (scenario.faulty()) {
    result.checkpoints += baseline.checkpoints;
    result.restores += baseline.restores;
  }
  if (!scenario.checkpoint && (result.checkpoints != 0 || result.restores != 0)) {
    result.checkpoint_ok = false;
    failure << "checkpoint-off scenario touched the store (puts=" << result.checkpoints
            << ",restores=" << result.restores << ");";
  }

  // ---- fleet half ---------------------------------------------------------
  const ClusterResult fleet = RunClusterTrial(MakeFleetConfig(scenario));
  // A lone migrating chain has no third-party holders, so mechanistic runs
  // only engage the dedup plane on a re-migration; the fleet half (many
  // processes, shared pages) is where cache serves actually accrue.
  result.cache_activity = cache_activity + fleet.pages_deduped;
  if (!scenario.content_cache && result.cache_activity != 0) {
    result.dedup_ok = false;
    failure << "cache-off scenario touched the dedup plane (served="
            << result.cache_activity << ");";
  }
  result.cluster_census_ok = fleet.census_ok;
  result.cluster_hung = fleet.hung;
  result.diskless_backing_anchors = fleet.diskless_backing_anchors;
  if (!result.cluster_census_ok) {
    failure << "fleet census imbalance;";
  }
  if (result.cluster_hung) {
    failure << "fleet hung;";
  }
  if (result.diskless_backing_anchors != 0) {
    failure << "diskless host anchored backing;";
  }

  result.failure = failure.str();
  return result;
}

FuzzCorpusResult RunFuzzCorpus(std::uint64_t first_seed, std::uint64_t count, int threads) {
  const PageCounterSnapshot before = ReadPageCounters();

  // Every scenario owns private simulations, so thread count and
  // scheduling cannot reach any result.
  FuzzCorpusResult corpus;
  corpus.scenarios = count;
  corpus.results = ParallelMap(threads, static_cast<std::size_t>(count),
                               [first_seed](std::size_t i) { return RunScenario(first_seed + i); });
  for (const FuzzScenarioResult& r : corpus.results) {
    switch (r.outcome) {
      case FailureOutcome::kCompleted:
        ++corpus.completed;
        if (!r.integrity_ok) {
          ++corpus.integrity_failures;
        }
        break;
      case FailureOutcome::kAborted:
        ++corpus.aborted;
        break;
      case FailureOutcome::kTerminalFault:
        ++corpus.terminal_faults;
        break;
      case FailureOutcome::kHung:
        ++corpus.hung;
        break;
    }
    corpus.backer_imbalances += r.backer_balanced ? 0 : 1;
    corpus.cluster_census_failures += r.cluster_census_ok ? 0 : 1;
    corpus.cluster_hangs += r.cluster_hung ? 1 : 0;
    corpus.diskless_backing_anchors += r.diskless_backing_anchors;
    corpus.remigrations += r.remigrated ? 1 : 0;
    corpus.crash_scenarios +=
        (r.scenario.crash_dest || r.scenario.crash_source) ? 1 : 0;
    corpus.cached_scenarios += r.scenario.content_cache ? 1 : 0;
    corpus.dedup_failures += r.dedup_ok ? 0 : 1;
    corpus.checkpoint_scenarios += r.scenario.checkpoint ? 1 : 0;
    corpus.restores_completed += r.restores;
    corpus.checkpoint_failures += r.checkpoint_ok ? 0 : 1;
    if (!r.ok()) {
      ++corpus.failures;
      ACCENT_LOG(kError) << "fuzz: seed " << r.scenario.seed << " FAILED [" << r.failure
                         << "] scenario: " << r.scenario.Describe();
      ACCENT_LOG(kError) << "fuzz: replay with: tools/migrate_sim --replay-seed="
                         << r.scenario.seed;
    }
  }

  const PageCounterSnapshot after = ReadPageCounters();
  corpus.payload_leak = static_cast<std::int64_t>(after.live_payloads()) -
                        static_cast<std::int64_t>(before.live_payloads());
  if (corpus.payload_leak != 0) {
    ++corpus.failures;
    ACCENT_LOG(kError) << "fuzz: corpus leaked " << corpus.payload_leak
                       << " page payloads (allocs minus frees did not settle)";
  }
  return corpus;
}

Json FuzzCorpusToJson(const FuzzCorpusResult& corpus) {
  Json scenarios{Json::Array{}};
  for (const FuzzScenarioResult& r : corpus.results) {
    Json entry = MechRowToJson(r.scenario, r.run, r.verdict);
    entry["backer_balanced"] = Json(r.backer_balanced);
    entry["cluster_census_ok"] = Json(r.cluster_census_ok);
    entry["cluster_hung"] = Json(r.cluster_hung);
    entry["content_cache"] = Json(r.scenario.content_cache);
    entry["dedup_ok"] = Json(r.dedup_ok);
    entry["cache_activity"] = Json(r.cache_activity);
    entry["checkpoint"] = Json(r.scenario.checkpoint);
    entry["checkpoint_ok"] = Json(r.checkpoint_ok);
    entry["checkpoints"] = Json(r.checkpoints);
    entry["restores"] = Json(r.restores);
    entry["failure"] = Json(r.failure);
    scenarios.Append(std::move(entry));
  }

  Json report;
  report["bench"] = Json("fuzz_corpus");
  report["schema_version"] = Json(2);
  report["first_seed"] =
      Json(corpus.results.empty() ? std::uint64_t{0} : corpus.results.front().scenario.seed);
  report["scenario_count"] = Json(corpus.scenarios);
  report["completed"] = Json(corpus.completed);
  report["aborted"] = Json(corpus.aborted);
  report["terminal_faults"] = Json(corpus.terminal_faults);
  report["hung"] = Json(corpus.hung);
  report["integrity_failures"] = Json(corpus.integrity_failures);
  report["backer_imbalances"] = Json(corpus.backer_imbalances);
  report["cluster_census_failures"] = Json(corpus.cluster_census_failures);
  report["cluster_hangs"] = Json(corpus.cluster_hangs);
  report["diskless_backing_anchors"] = Json(corpus.diskless_backing_anchors);
  report["payload_leak"] = Json(static_cast<std::int64_t>(corpus.payload_leak));
  report["remigrations"] = Json(corpus.remigrations);
  report["crash_scenarios"] = Json(corpus.crash_scenarios);
  report["cached_scenarios"] = Json(corpus.cached_scenarios);
  report["dedup_failures"] = Json(corpus.dedup_failures);
  report["checkpoint_scenarios"] = Json(corpus.checkpoint_scenarios);
  report["restores_completed"] = Json(corpus.restores_completed);
  report["checkpoint_failures"] = Json(corpus.checkpoint_failures);
  report["failures"] = Json(corpus.failures);
  report["scenarios"] = std::move(scenarios);
  AddGate(&report, "failures", corpus.failures, "==", 0);
  AddGate(&report, "integrity_failures", corpus.integrity_failures, "==", 0);
  AddGate(&report, "hung", corpus.hung, "==", 0);
  AddGate(&report, "dedup_failures", corpus.dedup_failures, "==", 0);
  AddGate(&report, "checkpoint_failures", corpus.checkpoint_failures, "==", 0);
  return report;
}

}  // namespace accent
