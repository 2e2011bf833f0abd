// Tracing subsystem: Chrome-trace export shape, determinism, the
// migration-phase tiling invariant, and the zero-perturbation guarantee
// (a traced trial must serialise byte-identically to an untraced one), and
// a pin on the event order and span args of six traced migrations.
#include <gtest/gtest.h>

#include <vector>

#include "src/experiments/failure_sweep.h"
#include "src/experiments/precopy.h"
#include "src/experiments/sweep_cache.h"
#include "src/experiments/trial.h"
#include "src/trace/trace.h"
#include "tests/digest.h"

namespace accent {
namespace {

TEST(Tracer, ChromeTraceShape) {
  Tracer tracer;
  tracer.Instant(HostId{1}, TraceLane::kMigration, "migrate:request", Us(10),
                 {{"proc", Json(7)}});
  tracer.Complete(HostId{1}, TraceLane::kMigration, "migrate:excise", Us(10), Us(25));
  tracer.Complete(HostId{2}, TraceLane::kWire, "wire:tx", Us(12), Us(3));
  tracer.Counter(HostId{1}, "queue_depth", Us(15), 4.0);
  tracer.KernelInstant("sim:dispatch", Us(5));

  const Json root = tracer.ToChromeTraceJson();
  EXPECT_EQ(root.Get("displayTimeUnit").AsString(), "ms");
  const Json::Array& events = root.Get("traceEvents").AsArray();

  // Metadata first: process_name for pid 0 (kernel), 1 and 2, then
  // thread_name per populated (pid, lane) pair.
  std::size_t metadata = 0;
  bool saw_kernel = false, saw_host1 = false;
  for (const Json& event : events) {
    if (event.Get("ph").AsString() != "M") {
      break;
    }
    ++metadata;
    if (event.Get("name").AsString() == "process_name") {
      const std::string& label = event.Get("args").Get("name").AsString();
      saw_kernel |= label == "simulator" && event.Get("pid").AsUint64() == 0;
      saw_host1 |= label == "host-1" && event.Get("pid").AsUint64() == 1;
    }
  }
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_host1);
  ASSERT_EQ(events.size(), metadata + 5);

  // Records sorted by timestamp: the kernel instant (ts 5) leads.
  const Json& first = events[metadata];
  EXPECT_EQ(first.Get("name").AsString(), "sim:dispatch");
  EXPECT_EQ(first.Get("ph").AsString(), "i");
  EXPECT_EQ(first.Get("ts").AsInt64(), 5);

  // The excise span keeps its microsecond duration exactly.
  bool saw_excise = false;
  for (std::size_t i = metadata; i < events.size(); ++i) {
    const Json& event = events[i];
    if (event.Get("name").AsString() == "migrate:excise") {
      saw_excise = true;
      EXPECT_EQ(event.Get("ph").AsString(), "X");
      EXPECT_EQ(event.Get("ts").AsInt64(), 10);
      EXPECT_EQ(event.Get("dur").AsInt64(), 25);
      EXPECT_EQ(event.Get("pid").AsUint64(), 1u);
    }
  }
  EXPECT_TRUE(saw_excise);
}

TrialConfig TracedConfig(const std::string& workload, TransferStrategy strategy,
                         Tracer* tracer) {
  TrialConfig config;
  config.workload = workload;
  config.strategy = strategy;
  config.tracer = tracer;
  return config;
}

TEST(Tracer, ExportIsDeterministic) {
  Tracer first_tracer;
  RunTrial(TracedConfig("Minprog", TransferStrategy::kPureIou, &first_tracer));
  Tracer second_tracer;
  RunTrial(TracedConfig("Minprog", TransferStrategy::kPureIou, &second_tracer));

  ASSERT_GT(first_tracer.size(), 0u);
  EXPECT_EQ(first_tracer.DumpChromeTrace(), second_tracer.DumpChromeTrace());
}

// Acceptance check from the issue: a traced pure-IOU Pasmac migration
// exports Perfetto-loadable JSON whose migration-phase spans tile the
// request-to-resume interval exactly — excise + transfer + insert sums to
// the measured end-to-end downtime.
TEST(Tracer, PhaseSpansTileDowntime) {
  Tracer tracer;
  const TrialResult result =
      RunTrial(TracedConfig("PM-Start", TransferStrategy::kPureIou, &tracer));

  const TraceEvent* excise = nullptr;
  const TraceEvent* transfer = nullptr;
  const TraceEvent* insert = nullptr;
  bool saw_complete = false, saw_resumed = false;
  for (const TraceEvent& event : tracer.events()) {
    if (event.name == "migrate:excise") excise = &event;
    if (event.name == "migrate:transfer") transfer = &event;
    if (event.name == "migrate:insert") insert = &event;
    saw_complete |= event.name == "migrate:complete";
    saw_resumed |= event.name == "migrate:resumed";
  }
  ASSERT_NE(excise, nullptr);
  ASSERT_NE(transfer, nullptr);
  ASSERT_NE(insert, nullptr);
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_resumed);

  // Contiguous tiling: each phase starts where the previous one ended.
  EXPECT_EQ(excise->ts + excise->dur, transfer->ts);
  EXPECT_EQ(transfer->ts + transfer->dur, insert->ts);
  EXPECT_EQ(excise->dur + transfer->dur + insert->dur, result.migration.Downtime());

  // Perfetto-loadable: the export parses back and every record carries the
  // required Chrome-trace keys.
  Json parsed;
  ASSERT_TRUE(Json::TryParse(tracer.DumpChromeTrace(), &parsed));
  for (const Json& event : parsed.Get("traceEvents").AsArray()) {
    EXPECT_NE(event.Find("name"), nullptr);
    EXPECT_NE(event.Find("ph"), nullptr);
    EXPECT_NE(event.Find("pid"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
  }
}

// The zero-perturbation guarantee behind the byte-identity acceptance
// criterion: attaching a Tracer (even verbose) must not change a single
// field of the trial result.
TEST(Tracer, TracingIsInert) {
  TrialConfig config;
  config.workload = "Minprog";
  config.strategy = TransferStrategy::kResidentSet;
  const std::string untraced = TrialResultToJson(RunTrial(config)).Dump();

  Tracer tracer;
  config.tracer = &tracer;
  const std::string traced = TrialResultToJson(RunTrial(config)).Dump();
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_EQ(untraced, traced);

  tracer.Clear();
  tracer.set_verbose(true);
  const std::string verbose = TrialResultToJson(RunTrial(config)).Dump();
  EXPECT_EQ(untraced, verbose);
}

// FNV-1a fold of the non-verbose Chrome-trace dumps of six migrations: one
// per strategy on PM-Start with the checkpoint store on, the live Chess
// pre-copy cell of the pre-copy grid (4 rounds, no SLO; it runs two), and
// the failure matrix's Minprog pure-IOU dest_crash cell (it aborts and
// rolls back). The golden and report digests pin results only; this pins
// which events fire, in what order, with what args.
constexpr std::uint64_t kMigrationTraceDigest = 0xcbdc1a41eb0dd43cull;

TEST(Tracer, MigrationTracesArePinned) {
  Tracer tracer;
  std::uint64_t digest = kFnv1aOffsetBasis;
  const auto fold = [&tracer, &digest] {
    EXPECT_GT(tracer.size(), 0u);
    digest = Fnv1a(digest, tracer.DumpChromeTrace());
    tracer.Clear();
  };

  for (TransferStrategy strategy : {TransferStrategy::kPureCopy, TransferStrategy::kPureIou,
                                    TransferStrategy::kResidentSet, TransferStrategy::kPreCopy}) {
    FuzzScenario spec;
    spec.workload = "PM-Start";
    spec.strategy = strategy;
    spec.checkpoint = true;
    spec.tracer = &tracer;
    const MechRun run = RunMech(spec, FaultPlan{}, spec.seed);
    EXPECT_TRUE(run.hop1_done && !run.hop1.aborted) << StrategyName(strategy);
    EXPECT_TRUE(run.hop1.checkpointed) << StrategyName(strategy);
    fold();
  }

  int live_cells = 0;
  for (FuzzScenario spec : PreCopySweepSpecs(42)) {
    if (spec.workload != "Chess" || spec.strategy != TransferStrategy::kPreCopy ||
        spec.precopy.max_rounds != 4 || spec.precopy.target_downtime != SimDuration{0}) {
      continue;
    }
    ++live_cells;
    EXPECT_GT(spec.live_migrate_at, SimDuration{0});
    spec.tracer = &tracer;
    const MechRun run = RunMech(spec, PlantFaults(spec, MechRun{}), spec.seed);
    EXPECT_EQ(run.hop1.precopy_rounds, 2);
    fold();
  }
  EXPECT_EQ(live_cells, 1);

  const std::uint64_t reference = ReferenceChecksum("Minprog", 42);
  const MechRun baseline =
      RunFailureBaseline(FailureSpec({}, "Minprog", TransferStrategy::kPureIou, 42), reference);
  for (const FailureScenario& column : FailureScenarios()) {
    if (column.name != "dest_crash") {
      continue;
    }
    FuzzScenario spec = FailureSpec(column.faults, "Minprog", TransferStrategy::kPureIou, 42);
    spec.tracer = &tracer;
    const MechTrial trial = RunFailureTrial(spec, column.name, baseline, reference);
    EXPECT_TRUE(trial.run.hop1.aborted);
    EXPECT_TRUE(trial.verdict.rolled_back);
    fold();
  }

  EXPECT_EQ(digest, kMigrationTraceDigest)
      << "migration traces changed: new digest 0x" << std::hex << digest;
}

// Verbose mode strictly adds events (per-fragment, per-dispatch detail).
TEST(Tracer, VerboseAddsDetail) {
  Tracer quiet;
  RunTrial(TracedConfig("Minprog", TransferStrategy::kPureCopy, &quiet));
  Tracer verbose;
  verbose.set_verbose(true);
  RunTrial(TracedConfig("Minprog", TransferStrategy::kPureCopy, &verbose));

  EXPECT_GT(verbose.size(), quiet.size());
  bool saw_dispatch = false;
  for (const TraceEvent& event : verbose.events()) {
    saw_dispatch |= event.name == "sim:dispatch";
  }
  EXPECT_TRUE(saw_dispatch);
}

}  // namespace
}  // namespace accent
