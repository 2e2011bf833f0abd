// perfbench: the simulator's one benchmark command.
//
// Runs one of three closed-loop workloads (one client, one thread, units
// back to back) through the public entry points of src/experiments:
//
//   paper_grid   one RunTrial per unit over the paper's 77-trial grid
//   fleet_churn  one RunClusterTrial per unit (480 hosts, 75 s of churn)
//   fuzz_lossy   one RunScenario per unit over a seeded scenario batch
//
// Every unit is checked for correctness. The process pins itself to one
// CPU, and host times are scaled to a fixed host speed by yardstick readings
// taken between stretches of work (yardstick.h). An untraced phase gives the
// end-to-end metrics; with --trace 1 a traced phase follows (host-time spans
// around every call into a layer, plus the simulator's own Tracer where the
// entry point accepts one), then the layer labs, and the per-layer metrics
// are printed instead. The last line of stdout is one JSON object:
// {"attempted","correct","failed","metrics"}.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench --selftest
//   perfbench --list-metrics
//   perfbench --yardstick
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/labs.h"
#include "perfbench/report.h"
#include "perfbench/yardstick.h"
#include "src/base/json.h"
#include "src/base/page_ref.h"
#include "src/base/rng.h"
#include "src/experiments/cluster.h"
#include "src/experiments/scenario_fuzz.h"
#include "src/experiments/sweep.h"
#include "src/experiments/sweep_cache.h"
#include "src/experiments/trial.h"
#include "src/trace/trace.h"
#include "src/workloads/workload.h"

namespace perfbench {

using namespace accent;  // NOLINT(build/namespaces): benchmark code reads like the simulator's

namespace {

// tests/golden_sweep_test.cc: FNV-1a over every TrialResultToJson(r).Dump()
// of the 77-trial grid at seed 42, each row followed by "\n".
constexpr std::uint64_t kGoldenSweepDigest = 0x5798e77cf186ffd8ull;
constexpr std::uint64_t kGoldenSeed = 42;
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t Fnv1a(std::uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

double SimMs(SimDuration d) { return ToSeconds(d) * 1e3; }

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

// --- phases ----------------------------------------------------------------------

struct Phase {
  std::vector<double> batch_s;
  std::vector<double> unit_ms;
  // The same times scaled to the yardstick's baseline host speed.
  std::vector<double> norm_batch_s;
  std::vector<double> norm_unit_ms;
  double user_s = 0.0;
  double sys_s = 0.0;
  long minor_faults = 0;
  // PageRef payload work per batch (ReadPageCounters deltas).
  double payload_allocs = 0.0;
  double page_bytes_copied = 0.0;
};

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// Times a phase's batches and units. Yardstick passes cut the work into
// stretches of at least kStretchS, never inside a unit; each stretch's raw
// time, and every unit time in it, is scaled by the passes before and after
// it. Neither the batch times nor the process counters include the passes.
class PhaseClock {
 public:
  static constexpr double kStretchS = 0.25;

  PhaseClock(HostSpeed& speed, SpanRecorder& spans, Phase& phase)
      : speed_(speed), spans_(spans), phase_(phase) {}

  void BeginBatch() {
    batch_raw_s_ = 0.0;
    batch_norm_s_ = 0.0;
    BeginStretch();
  }

  // One unit's raw host time.
  void Record(double unit_ms) { phase_.unit_ms.push_back(unit_ms); }

  // Between two units, outside their spans: ends the stretch once it has
  // run kStretchS.
  void BetweenUnits() {
    if (SecondsSince(stretch_start_) >= kStretchS) {
      EndStretch();
      BeginStretch();
    }
  }

  void EndBatch() {
    EndStretch();
    phase_.batch_s.push_back(batch_raw_s_);
    phase_.norm_batch_s.push_back(batch_norm_s_);
  }

 private:
  void BeginStretch() {
    getrusage(RUSAGE_SELF, &stretch_usage_);
    first_unit_ = phase_.unit_ms.size();
    stretch_start_ = Clock::now();
  }

  void EndStretch() {
    const double raw_s = SecondsSince(stretch_start_);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    phase_.user_s += TimevalSeconds(usage.ru_utime) - TimevalSeconds(stretch_usage_.ru_utime);
    phase_.sys_s += TimevalSeconds(usage.ru_stime) - TimevalSeconds(stretch_usage_.ru_stime);
    phase_.minor_faults += usage.ru_minflt - stretch_usage_.ru_minflt;

    double scale = 0.0;
    {
      SpanRecorder::Scope span(spans_, "yardstick", speed_.reading_s().size());
      scale = speed_.ScaleSinceLastReading();
    }
    batch_raw_s_ += raw_s;
    batch_norm_s_ += raw_s * scale;
    for (std::size_t u = first_unit_; u < phase_.unit_ms.size(); ++u) {
      phase_.norm_unit_ms.push_back(phase_.unit_ms[u] * scale);
    }
  }

  HostSpeed& speed_;
  SpanRecorder& spans_;
  Phase& phase_;
  Clock::time_point stretch_start_;
  rusage stretch_usage_{};
  std::size_t first_unit_ = 0;
  double batch_raw_s_ = 0.0;
  double batch_norm_s_ = 0.0;
};

// One workload: inputs made from the seed, an untimed warm-up, and a fixed
// batch of units.
class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs from `seed` and runs the warm-up.
  virtual void Setup(std::uint64_t seed) = 0;

  // Runs the batch once. Each unit's verdict goes to `tally` and its host
  // time to `clock`, which may run a yardstick pass between units. `traced`
  // records spans and, where the entry point takes one, attaches a verbose
  // Tracer to the simulation.
  virtual void RunBatch(Tally& tally, PhaseClock& clock, SpanRecorder& spans, bool traced) = 0;

  // Simulated-clock results of the last batch: the sim_* end-to-end
  // metrics and the per-layer counters derived from simulated results.
  // They are the same for every batch of one seed, traced or not.
  const MetricSet& sim() const { return sim_; }

  // Per-layer counters read from the Tracer or the process during the last
  // traced batch.
  const MetricSet& traced() const { return traced_; }

  // Layer labs that depend on this workload's inputs.
  virtual void WorkloadLabs(MetricSet& /*metrics*/, SpanRecorder& /*spans*/) {}

  // True when the batch itself measures base.json_row_us.
  virtual bool measures_json_rows() const { return false; }

 protected:
  MetricSet sim_;
  MetricSet traced_;
};

// --- paper_grid ----------------------------------------------------------------

class PaperGrid : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    seed_ = seed;
    configs_.clear();
    for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
      for (const TrialConfig& config : StrategySweepConfigs(spec.name, seed)) {
        configs_.push_back(config);
      }
    }
    ACCENT_CHECK(configs_.size() == 77) << " grid has " << configs_.size() << " trials";
    // Warm-up: the first trial of each program under each strategy, so
    // every workload spec and every transfer path has run once.
    std::set<std::pair<std::string, TransferStrategy>> warmed;
    for (const TrialConfig& config : configs_) {
      if (warmed.emplace(config.workload, config.strategy).second) {
        RunTrial(config);
      }
    }
  }

  void RunBatch(Tally& tally, PhaseClock& clock, SpanRecorder& spans, bool traced) override {
    Tracer tracer;
    tracer.set_verbose(true);
    std::uint64_t digest = kFnvBasis;
    std::vector<bool> ok(configs_.size(), true);
    std::vector<double> downtime_ms;
    std::vector<double> excise_ms, transfer_ms, insert_ms, amap_ms, rimas_ms;
    std::vector<double> json_us;
    double transfer_plus_exec_s = 0.0;
    double netmsg_busy_s = 0.0;
    std::uint64_t wire_bytes = 0, messages = 0;
    PagerStats faults;
    std::uint64_t events = 0, retransmits = 0, acks = 0;

    for (std::size_t i = 0; i < configs_.size(); ++i) {
      if (i > 0) {
        clock.BetweenUnits();  // after the previous unit's span closed
      }
      SpanRecorder::Scope unit_span(spans, "unit.trial", i);
      TrialConfig config = configs_[i];
      config.tracer = traced ? &tracer : nullptr;
      TrialResult result;
      const auto start = Clock::now();
      {
        SpanRecorder::Scope span(spans, "experiments.RunTrial", i);
        result = RunTrial(config);
      }
      clock.Record(MsSince(start));

      std::string row;
      const auto json_start = Clock::now();
      {
        SpanRecorder::Scope span(spans, "base.TrialResultToJson", i);
        row = TrialResultToJson(result).Dump();
      }
      json_us.push_back(MsSince(json_start) * 1e3);
      digest = Fnv1a(Fnv1a(digest, row), "\n");

      // Every later pass, traced or not, must reproduce the first pass's row.
      const std::uint64_t row_digest = Fnv1a(kFnvBasis, row);
      if (reference_.size() <= i) {
        reference_.push_back(row_digest);
      } else if (reference_[i] != row_digest) {
        ok[i] = false;
        std::fprintf(stderr, "paper_grid: trial %zu (%s) differs from the first pass\n", i,
                     config.workload.c_str());
      }

      const MigrationRecord& m = result.migration;
      downtime_ms.push_back(SimMs(m.Downtime()));
      excise_ms.push_back(SimMs(m.excise_overall));
      transfer_ms.push_back(SimMs(m.TransferPhase()));
      insert_ms.push_back(SimMs(m.insert_time));
      amap_ms.push_back(SimMs(m.excise_amap));
      rimas_ms.push_back(SimMs(m.excise_rimas));
      transfer_plus_exec_s += ToSeconds(result.TransferPlusExec());
      netmsg_busy_s += ToSeconds(result.netmsg_busy);
      wire_bytes += result.bytes_total;
      messages += result.messages_total;
      faults.imag_faults += result.dest_pager.imag_faults;
      faults.disk_faults += result.dest_pager.disk_faults;
      faults.fillzero_faults += result.dest_pager.fillzero_faults;
      faults.cow_faults += result.dest_pager.cow_faults;
      faults.prefetched_pages += result.dest_pager.prefetched_pages;
      faults.prefetch_hits += result.dest_pager.prefetch_hits;

      if (traced) {
        for (const TraceEvent& event : tracer.events()) {
          if (event.lane == TraceLane::kSim) {
            events += event.name == "sim:dispatch" ? 1 : 0;
          } else if (event.lane == TraceLane::kNetMsg) {
            retransmits += event.name == "netmsg:retransmit" ? 1 : 0;
            acks += event.name == "netmsg:ack-send" ? 1 : 0;
          }
        }
        tracer.Clear();
      }
    }

    if (seed_ == kGoldenSeed && digest != kGoldenSweepDigest) {
      std::fprintf(stderr, "paper_grid: digest 0x%016llx != golden 0x%016llx\n",
                   static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(kGoldenSweepDigest));
      ok.assign(ok.size(), false);
    }
    for (const bool unit_ok : ok) {
      tally.Record(unit_ok);
    }

    sim_.Set("sim_downtime_p50_ms", Percentile(downtime_ms, 50.0));
    sim_.Set("sim_downtime_p99_ms", Percentile(downtime_ms, 99.0));
    sim_.Set("sim_transfer_plus_exec_s", transfer_plus_exec_s);
    sim_.Set("sim_wire_bytes", static_cast<double>(wire_bytes));
    sim_.Set("sim_remote_faults", static_cast<double>(faults.imag_faults));
    sim_.Set("netmsg.messages", static_cast<double>(messages));
    sim_.Set("netmsg.busy_sim_s", netmsg_busy_s);
    sim_.Set("pager.faults.imaginary", static_cast<double>(faults.imag_faults));
    sim_.Set("pager.faults.disk", static_cast<double>(faults.disk_faults));
    sim_.Set("pager.faults.fillzero", static_cast<double>(faults.fillzero_faults));
    sim_.Set("pager.faults.cow", static_cast<double>(faults.cow_faults));
    sim_.Set("pager.prefetch_useful_frac",
             faults.prefetched_pages == 0
                 ? 0.0
                 : static_cast<double>(faults.prefetch_hits) /
                       static_cast<double>(faults.prefetched_pages));
    sim_.Set("migration.excise_ms", Median(excise_ms));
    sim_.Set("migration.transfer_ms", Median(transfer_ms));
    sim_.Set("migration.insert_ms", Median(insert_ms));
    sim_.Set("migration.excise_amap_ms", Median(amap_ms));
    sim_.Set("migration.excise_rimas_ms", Median(rimas_ms));

    if (traced) {
      traced_.Set("sim.events", static_cast<double>(events));
      traced_.Set("netmsg.retransmits", static_cast<double>(retransmits));
      traced_.Set("netmsg.acks", static_cast<double>(acks));
      traced_.Set("base.json_row_us", Median(json_us));
    }
  }

  bool measures_json_rows() const override { return true; }

 private:
  std::uint64_t seed_ = 0;
  std::vector<TrialConfig> configs_;
  std::vector<std::uint64_t> reference_;  // per-trial row digests of the first pass
};

// --- fleet_churn ---------------------------------------------------------------

// bench/cluster_sweep's BigTrialConfig, pinned to one shard on one thread.
ClusterConfig FleetConfig(std::uint64_t seed) {
  ClusterConfig config;
  config.host_count = 480;
  config.initial_processes_per_host = 30;
  config.duration = Sec(75.0);
  config.arrivals_per_host_per_sec = 1.0;
  config.mean_service_sec = 60.0;
  config.policy.sample_period = Sec(2.0);
  config.seed = seed;
  config.shards = 1;
  config.shard_threads = 1;
  return config;
}

class FleetChurn : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    config_ = FleetConfig(seed);
    // The warm-up trial is also the reference every measured trial must
    // reproduce byte for byte.
    reference_ = ClusterResultToJson(RunClusterTrial(config_)).Dump();
  }

  void RunBatch(Tally& tally, PhaseClock& clock, SpanRecorder& spans,
                bool /*traced*/) override {
    const std::uint64_t unit = unit_id_++;
    SpanRecorder::Scope unit_span(spans, "unit.fleet_trial", unit);
    ClusterResult r;
    const auto start = Clock::now();
    {
      SpanRecorder::Scope span(spans, "experiments.RunClusterTrial", unit);
      r = RunClusterTrial(config_);
    }
    clock.Record(MsSince(start));
    bool identical = false;
    {
      SpanRecorder::Scope span(spans, "experiments.ClusterResultToJson", unit);
      identical = ClusterResultToJson(r).Dump() == reference_;
    }
    const bool ok = r.census_ok && !r.hung && identical;
    if (!ok) {
      std::fprintf(stderr, "fleet_churn: trial %llu census_ok=%d hung=%d identical=%d\n",
                   static_cast<unsigned long long>(unit), r.census_ok, r.hung, identical);
    }
    tally.Record(ok);

    sim_.Set("sim_downtime_p50_ms", SimMs(r.downtime_p50));
    sim_.Set("sim_downtime_p99_ms", SimMs(r.downtime_p99));
    sim_.Set("sim_wire_bytes", static_cast<double>(r.wire_bytes));
    sim_.Set("sim_migrations_per_s", r.steady_migrations_per_sec);
    sim_.Set("sim.events", static_cast<double>(r.events_executed));
    sim_.Set("cluster.migrations_completed", static_cast<double>(r.migrations_completed));
    sim_.Set("cluster.pull_batches", static_cast<double>(r.pull_batches));
    sim_.Set("cluster.pages_pulled", static_cast<double>(r.pages_pulled));
    const std::uint64_t directives = r.migrations_started + r.directives_unfilled;
    sim_.Set("cluster.directive_fill_frac",
             directives == 0 ? 0.0
                             : static_cast<double>(r.migrations_started) /
                                   static_cast<double>(directives));
  }

 private:
  ClusterConfig config_;
  std::string reference_;
  std::uint64_t unit_id_ = 0;
};

// --- fuzz_lossy ----------------------------------------------------------------

// A fuzz batch is stratified on what drives a scenario's cost: its Table
// 4-1 program, its host count (2-3, 4-5, 6-8) and whether it re-migrates.
// Equal quotas per stratum keep the batch's cost mix the same from seed to
// seed, so the seed changes which scenarios run but not how much work.
constexpr int kScenariosPerStratum = 4;

std::string Stratum(const FuzzScenario& scenario) {
  const int hosts = scenario.host_count <= 3 ? 0 : (scenario.host_count <= 5 ? 1 : 2);
  return scenario.workload + "/" + std::to_string(hosts) + "/" +
         (scenario.remigrate ? "remigrate" : "single");
}

std::vector<FuzzScenario> MakeFuzzBatch(std::uint64_t seed) {
  // Every program at every host count, with and without re-migration.
  const std::size_t strata = RepresentativeWorkloads().size() * 3 * 2;
  std::map<std::string, int> taken;
  std::vector<FuzzScenario> batch;
  Rng rng(seed);
  for (int draws = 0; batch.size() < strata * kScenariosPerStratum; ++draws) {
    ACCENT_CHECK(draws < 1000000) << " fuzz strata never filled";
    FuzzScenario scenario = MakeScenario(rng.NextBelow(1ull << 32));
    if (taken[Stratum(scenario)]++ < kScenariosPerStratum) {
      batch.push_back(std::move(scenario));
    }
  }
  return batch;
}

// Warm-up: the first scenario of each program.
std::vector<FuzzScenario> WarmUpScenarios(const std::vector<FuzzScenario>& batch) {
  std::map<std::string, const FuzzScenario*> first;
  for (const FuzzScenario& scenario : batch) {
    first.emplace(scenario.workload, &scenario);
  }
  std::vector<FuzzScenario> warm_up;
  for (const auto& [program, scenario] : first) {
    warm_up.push_back(*scenario);
  }
  return warm_up;
}

// Everything a scenario's result says, as one comparable string.
std::string Signature(const FuzzScenarioResult& r) {
  char text[256];
  std::snprintf(text, sizeof(text), "%d/%d/%d/%d/%d/%d/%d/%d/%d/%llu/%llu/%llu/",
                static_cast<int>(r.outcome), r.rolled_back, r.remigrated, r.integrity_ok, r.hang,
                r.backer_balanced, r.shard_match, r.cluster_census_ok, r.dedup_ok,
                static_cast<unsigned long long>(r.cache_activity),
                static_cast<unsigned long long>(r.checkpoints),
                static_cast<unsigned long long>(r.restores));
  return text + r.failure;
}

class FuzzLossy : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    scenarios_ = MakeFuzzBatch(seed);
    for (const FuzzScenario& scenario : WarmUpScenarios(scenarios_)) {
      RunScenario(scenario);
    }
  }

  void RunBatch(Tally& tally, PhaseClock& clock, SpanRecorder& spans,
                bool /*traced*/) override {
    const std::uint64_t live_before = ReadPageCounters().live_payloads();
    std::vector<bool> ok(scenarios_.size(), true);
    std::uint64_t completed = 0, aborted = 0, terminal = 0, restored = 0, remigrations = 0;
    std::uint64_t served = 0;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      if (i > 0) {
        clock.BetweenUnits();  // after the previous unit's span closed
      }
      const FuzzScenario& scenario = scenarios_[i];
      SpanRecorder::Scope unit_span(spans, "unit.scenario", scenario.seed);
      FuzzScenarioResult r;
      const auto start = Clock::now();
      {
        SpanRecorder::Scope span(spans, "experiments.RunScenario", scenario.seed);
        r = RunScenario(scenario);
      }
      clock.Record(MsSince(start));
      const std::string signature = Signature(r);
      if (reference_.size() <= i) {
        reference_.push_back(signature);
      }
      ok[i] = r.ok() && signature == reference_[i];
      if (!ok[i]) {
        std::fprintf(stderr, "fuzz_lossy: scenario seed %llu failed: %s (%s)\n",
                     static_cast<unsigned long long>(scenario.seed), r.failure.c_str(),
                     signature == reference_[i] ? "oracle" : "differs from the first pass");
      }
      completed += r.outcome == FailureOutcome::kCompleted ? 1 : 0;
      aborted += r.outcome == FailureOutcome::kAborted ? 1 : 0;
      terminal += r.outcome == FailureOutcome::kTerminalFault ? 1 : 0;
      restored += r.restores;
      remigrations += r.remigrated ? 1 : 0;
      served += r.cache_activity;
    }
    // Payload balance: every trial's testbed is gone, so every PageRef
    // payload it made must be too. A leak fails the batch's last unit.
    const auto leak = static_cast<std::int64_t>(ReadPageCounters().live_payloads() - live_before);
    if (leak != 0) {
      std::fprintf(stderr, "fuzz_lossy: live PageRef payloads moved by %lld across the batch\n",
                   static_cast<long long>(leak));
      ok.back() = false;
    }
    for (const bool unit_ok : ok) {
      tally.Record(unit_ok);
    }
    sim_.Set("fuzz.completed", static_cast<double>(completed));
    sim_.Set("fuzz.aborted", static_cast<double>(aborted));
    sim_.Set("fuzz.terminal", static_cast<double>(terminal));
    sim_.Set("fuzz.restored", static_cast<double>(restored));
    sim_.Set("fuzz.remigrations", static_cast<double>(remigrations));
    sim_.Set("page_service.pages_served", static_cast<double>(served));
  }

  void WorkloadLabs(MetricSet& metrics, SpanRecorder& spans) override {
    LossyTransferLab(scenarios_, metrics, spans);
  }

 private:
  std::vector<FuzzScenario> scenarios_;
  std::vector<std::string> reference_;  // per-scenario signatures of the first pass
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "paper_grid") {
    return std::make_unique<PaperGrid>();
  }
  if (name == "fleet_churn") {
    return std::make_unique<FleetChurn>();
  }
  if (name == "fuzz_lossy") {
    return std::make_unique<FuzzLossy>();
  }
  return nullptr;
}

// Runs whole batches back to back until the next one would overrun
// `budget_s` (at least one batch).
Phase RunPhase(Workload& workload, double budget_s, Tally& tally, SpanRecorder& spans,
               bool traced, HostSpeed& speed) {
  Phase phase;
  PhaseClock clock(speed, spans, phase);
  const PageCounterSnapshot pages_before = ReadPageCounters();
  const auto start = Clock::now();
  do {
    SpanRecorder::Scope span(spans, "batch", phase.batch_s.size());
    clock.BeginBatch();
    workload.RunBatch(tally, clock, spans, traced);
    clock.EndBatch();
  } while (SecondsSince(start) + phase.batch_s.back() <= budget_s);
  const PageCounterSnapshot pages_after = ReadPageCounters();
  const auto batches = static_cast<double>(phase.batch_s.size());
  phase.payload_allocs =
      static_cast<double>(pages_after.payload_allocs - pages_before.payload_allocs) / batches;
  phase.page_bytes_copied =
      static_cast<double>(pages_after.page_bytes_copied - pages_before.page_bytes_copied) /
      batches;
  return phase;
}

// The process's own peak resident set: VmHWM of /proc/self/status, in MB.
// ru_maxrss is not used because it keeps the peak of the process that
// started this one (run.py's Python interpreter) across the exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // VmHWM is in kB
    }
  }
  return 0.0;
}

// Pins the process, and every thread it starts later, to the CPU it is
// running on; returns that CPU, or -1 if the process stays unpinned. The
// workloads are closed loops of one client, so one CPU is all they need,
// and the fuzz scenarios' 2-worker shard pool then takes turns on it
// instead of waiting on wake-ups across virtual CPUs of a shared host. The
// yardstick runs on the same CPU as the work it scales.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return -1;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

// --- output ----------------------------------------------------------------------

void PrintRow(const char* name, double value, const char* unit, const char* note = "") {
  std::printf("  %-32s %16.6g %-8s %s\n", name, value, unit, note);
}

// Units of the end-to-end metrics that only some workloads have.
const std::map<std::string, std::string>& WorkloadMetricUnits() {
  static const std::map<std::string, std::string> units = {
      {"sim_downtime_p50_ms", "sim_ms"},  {"sim_downtime_p99_ms", "sim_ms"},
      {"sim_transfer_plus_exec_s", "sim_s"}, {"sim_wire_bytes", "bytes"},
      {"sim_remote_faults", "count"},     {"sim_migrations_per_s", "sim_1/s"},
  };
  return units;
}

void PrintMetricTable(const std::vector<MetricDef>& defs, const MetricSet& metrics) {
  for (const MetricDef& def : defs) {
    PrintRow(def.name, metrics.Get(def.name), def.unit,
             metrics.Has(def.name) ? "" : "(not reached by this workload)");
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_grid|fleet_churn|fuzz_lossy --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n"
               "       %s --selftest | --list-metrics | --yardstick\n",
               argv0, argv0);
  return 2;
}

void ListMetrics() {
  Json out = Json::Object{};
  for (const auto& [key, defs] :
       {std::pair{"end_to_end", &EndToEndMetrics()}, std::pair{"per_layer", &PerLayerMetrics()}}) {
    Json list = Json::Array{};
    for (const MetricDef& def : *defs) {
      Json entry = Json::Object{};
      entry["name"] = Json(def.name);
      entry["unit"] = Json(def.unit);
      entry["better"] = Json(def.better);
      list.Append(std::move(entry));
    }
    out[key] = std::move(list);
  }
  std::printf("%s\n", out.Dump().c_str());
}

int Run(const Options& options) {
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds, options.trace);

  const int cpu = PinToCurrentCpu();
  std::printf("pinned to cpu %d (-1: not pinned)\n", cpu);

  // Every host time is scaled by the yardstick readings around it (see
  // yardstick.h); the raw times are printed in the report.
  HostSpeed speed;

  // Set-up five times; report the median and measure the last instance.
  constexpr int kSetups = 5;
  std::vector<double> setup_s, norm_setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    workload = MakeWorkload(options.workload);
    const auto start = Clock::now();
    workload->Setup(options.seed);
    setup_s.push_back(SecondsSince(start));
    norm_setup_s.push_back(setup_s.back() * speed.ScaleSinceLastReading());
  }

  Tally tally;
  SpanRecorder untraced_spans(false);
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const Phase untraced = RunPhase(*workload, budget, tally, untraced_spans, false, speed);
  const MetricSet sim_untraced = workload->sim();

  MetricSet e2e;
  e2e.Set("setup_s", Median(norm_setup_s));
  e2e.Set("wall_norm_s", Median(untraced.norm_batch_s));
  e2e.Set("unit_p50_norm_ms", Percentile(untraced.norm_unit_ms, 50.0));
  e2e.Set("unit_p90_norm_ms", Percentile(untraced.norm_unit_ms, 90.0));
  e2e.Set("peak_rss_mb", PeakRssMb());

  std::printf("\nend-to-end (untraced): %zu batches, %zu units\n", untraced.batch_s.size(),
              untraced.unit_ms.size());
  PrintMetricTable(EndToEndMetrics(), e2e);
  std::printf("  raw host times, before scaling to the yardstick baseline of %g ms:\n",
              kYardstickBaselineS * 1e3);
  PrintRow("setup_raw_s", Median(setup_s), "s");
  PrintRow("wall_raw_s", Median(untraced.batch_s), "s");
  PrintRow("unit_p50_raw_ms", Percentile(untraced.unit_ms, 50.0), "ms");
  PrintRow("unit_p90_raw_ms", Percentile(untraced.unit_ms, 90.0), "ms");
  PrintRow("yardstick_p10_ms", Percentile(speed.reading_s(), 10.0) * 1e3, "ms");
  PrintRow("yardstick_p50_ms", Median(speed.reading_s()) * 1e3, "ms");
  PrintRow("yardstick_p90_ms", Percentile(speed.reading_s(), 90.0) * 1e3, "ms");
  const std::size_t n = untraced.unit_ms.size();
  std::printf("  unit samples %zu, beyond p90 %zu%s\n", n, SamplesBeyond(n, 90.0),
              TailResolved(n, 90.0) ? "" : " (fewer than 10: p90 is not resolved)");
  PrintRow("failed_frac", tally.failed_frac(), "ratio");
  if (sim_untraced.Has("sim.events")) {
    PrintRow("sim_events_per_s",
             sim_untraced.Get("sim.events") / (Percentile(untraced.unit_ms, 50.0) / 1e3),
             "events/s");
  }
  for (const auto& [name, unit] : WorkloadMetricUnits()) {
    if (sim_untraced.Has(name)) {
      PrintRow(name.c_str(), sim_untraced.Get(name), unit.c_str());
    }
  }

  bool inert = true;
  bool spans_written = true;
  const std::vector<MetricDef>* reported = &EndToEndMetrics();
  MetricSet layer;
  if (options.trace) {
    SpanRecorder spans(true);
    const Phase traced = RunPhase(*workload, budget, tally, spans, true, speed);
    const MetricSet& sim_traced = workload->sim();
    // Tracing must be inert: every simulated-clock result is identical.
    inert = sim_traced.values() == sim_untraced.values();
    if (!inert) {
      for (const auto& [name, value] : sim_untraced.values()) {
        if (sim_traced.Get(name) != value) {
          std::fprintf(stderr, "trace not inert: %s untraced %.17g traced %.17g\n",
                       name.c_str(), value, sim_traced.Get(name));
        }
      }
    }

    for (const auto& [name, value] : sim_traced.values()) {
      layer.Set(name, value);
    }
    for (const auto& [name, value] : workload->traced().values()) {
      layer.Set(name, value);
    }
    {
      SpanRecorder::Scope span(spans, "labs", 0);
      RunLayerLabs(layer, spans, !workload->measures_json_rows());
      workload->WorkloadLabs(layer, spans);
    }
    if (layer.Get("sim.events") > 0) {
      layer.Set("sim.host_ns_per_event",
                Median(untraced.batch_s) * 1e9 / layer.Get("sim.events"));
    }
    layer.Set("process.user_s", untraced.user_s);
    layer.Set("process.sys_s", untraced.sys_s);
    const double cpu_s = untraced.user_s + untraced.sys_s;
    layer.Set("process.sys_frac", cpu_s > 0 ? untraced.sys_s / cpu_s : 0.0);
    layer.Set("process.minor_faults", static_cast<double>(untraced.minor_faults));
    layer.Set("base.payload_allocs", traced.payload_allocs);
    layer.Set("base.page_bytes_copied", traced.page_bytes_copied);
    layer.Set("trace.overhead_frac",
              Median(traced.norm_batch_s) / Median(untraced.norm_batch_s) - 1.0);

    std::printf("\ntracing inert (sim_* and simulated counters identical): %s\n",
                inert ? "yes" : "NO");
    std::printf("\nper-layer (traced): %zu batches, %zu units\n", traced.batch_s.size(),
                traced.unit_ms.size());
    PrintMetricTable(PerLayerMetrics(), layer);
    std::printf("\nspans by name: count, total ms, self ms\n");
    for (const auto& [name, totals] : spans.Totals()) {
      std::printf("  %-36s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(totals.count), totals.total_ns / 1e6,
                  totals.self_ns / 1e6);
    }
    if (!options.spans_path.empty()) {
      if (spans.WriteJson(options.spans_path)) {
        std::printf("spans: %zu written to %s\n", spans.spans().size(),
                    options.spans_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write spans to %s\n", options.spans_path.c_str());
        spans_written = false;
      }
    }
    reported = &PerLayerMetrics();
  }

  const bool correct = tally.correct() && inert && spans_written && speed.ok();
  const MetricSet& result = options.trace ? layer : e2e;
  std::printf("\ncorrect=%s attempted=%llu failed=%llu\n", correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  std::printf("%s\n", result.ResultLine(*reported, correct, tally).c_str());
  return correct ? 0 : 1;
}

// Prints ten yardstick passes: their host times and checksums.
int YardstickOnly() {
  bool ok = true;
  for (int k = 0; k < 10; ++k) {
    const YardstickPass pass = RunYardstick();
    ok = ok && pass.checksum == kYardstickChecksum;
    std::printf("yardstick: %.3f ms checksum 0x%016llx\n", pass.seconds * 1e3,
                static_cast<unsigned long long>(pass.checksum));
  }
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      const int failures = RunSelfTests();
      std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    } else if (arg == "--list-metrics") {
      ListMetrics();
      return 0;
    } else if (arg == "--yardstick") {
      return YardstickOnly();
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || MakeWorkload(options.workload) == nullptr || !(options.seconds > 0)) {
    return Usage(argv[0]);
  }
  return Run(options);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
