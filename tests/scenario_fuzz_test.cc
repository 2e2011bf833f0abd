// The fixed adversarial fuzz corpus (seeds 1..64) as individual ctest
// cases: every seeded scenario — random heterogeneous topology x workload
// x fault plan x strategy x optional re-migration — must satisfy all the
// standing oracles (content integrity, zero hangs, balanced backer
// references, the fleet census). A failing seed names itself: re-run it
// interactively with tools/migrate_sim --replay-seed=N.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/experiments/chain.h"
#include "src/experiments/failure_sweep.h"
#include "src/experiments/metrics_fold.h"
#include "src/experiments/precopy.h"
#include "src/experiments/scenario_fuzz.h"
#include "src/experiments/sweep.h"
#include "src/trace/trace.h"
#include "src/workloads/workload.h"
#include "tests/digest.h"

namespace accent {
namespace {

// FNV-1a digest of the serial JSON dump of seeds 1..8, each row the judged
// run's shared MechRowToJson row plus the scenario's oracles: MakeScenario's
// seed streams, every verdict and every judged run are pinned.
constexpr std::uint64_t kCorpusDigest = 0x0dd6d4fbb1af8f91ull;

class ScenarioFuzzCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioFuzzCorpus, SeedSatisfiesAllOracles) {
  const FuzzScenario scenario = MakeScenario(GetParam());
  const FuzzScenarioResult result = RunScenario(scenario);
  EXPECT_TRUE(result.ok()) << "seed " << GetParam() << " failed [" << result.failure
                           << "] scenario: " << scenario.Describe()
                           << "\nreplay with: tools/migrate_sim --replay-seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ScenarioFuzz, ScenarioFuzzCorpus, ::testing::Range<std::uint64_t>(1, 65));

// Migration must leave page contents exactly as an unmigrated run leaves
// them, so every lossless two-host migration of every workload, under every
// strategy, folds the unmigrated reference's checksum. The pure-copy cells
// are the procedure the reference used to be.
TEST(Scenario, ReferenceMatchesEveryLosslessStrategy) {
  constexpr std::uint64_t kSeed = 42;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    const std::uint64_t reference = ReferenceChecksum(spec.name, kSeed);
    for (TransferStrategy strategy :
         {TransferStrategy::kPureCopy, TransferStrategy::kPureIou,
          TransferStrategy::kResidentSet, TransferStrategy::kPreCopy}) {
      FuzzScenario sc;
      sc.seed = kSeed;
      sc.workload = spec.name;
      sc.strategy = strategy;
      const MechRun run = RunMech(sc, FaultPlan{}, kSeed);
      ASSERT_TRUE(run.drained && run.hop1_done && run.finished)
          << spec.name << " " << StrategyName(strategy);
      EXPECT_FALSE(run.hop1.aborted) << spec.name << " " << StrategyName(strategy);
      EXPECT_EQ(run.finish_host, sc.dest) << spec.name << " " << StrategyName(strategy);
      EXPECT_EQ(run.checksum, reference) << spec.name << " " << StrategyName(strategy);
    }
  }
}

std::set<std::string> Keys(const Json& row) {
  std::set<std::string> keys;
  for (const auto& [key, value] : row.AsObject()) {
    keys.insert(key);
  }
  return keys;
}

// `row` is MechRowToJson(spec, run, verdict), untouched, plus exactly the
// keys its family declares.
void ExpectSharedRowPlus(const Json& row, const FuzzScenario& spec, const MechRun& run,
                         const MechVerdict& verdict, const std::set<std::string>& declared) {
  const Json shared = MechRowToJson(spec, run, verdict);
  std::set<std::string> want = Keys(shared);
  for (const std::string& key : declared) {
    EXPECT_TRUE(want.insert(key).second) << key << " is a shared key";
  }
  EXPECT_EQ(Keys(row), want);
  for (const auto& [key, value] : shared.AsObject()) {
    EXPECT_EQ(row.Get(key).Dump(), value.Dump()) << key;
  }
}

// One cell of each family, through the family's own report writer: every
// per-run row is the one shared row plus that family's declared keys.
TEST(Scenario, EveryFamilyRowIsTheSharedRowPlusItsDeclaredKeys) {
  const std::uint64_t reference = ReferenceChecksum("Minprog", 42);
  for (bool checkpoint_store : {false, true}) {
    SCOPED_TRACE(checkpoint_store ? "checkpoint" : "failure");
    const FailureScenario& column = FailureScenarios()[0];  // a one-group matrix's first column
    const FuzzScenario spec = FailureSpec(column.faults, "Minprog", TransferStrategy::kPureIou,
                                          42, checkpoint_store);
    FailureMatrix matrix;
    matrix.baselines.push_back(RunFailureBaseline(spec, reference));
    const MechTrial& trial = matrix.trials.emplace_back(
        RunFailureTrial(spec, column.name, matrix.baselines.back(), reference));
    ExpectSharedRowPlus(FailureMatrixToJson(matrix).Get("trials").AsArray().at(0), trial.spec,
                        trial.run, trial.verdict, {"scenario", "slowdown"});
  }

  const FuzzScenario chain_cell = ChainSweepSpecs("Minprog", 42)[1];
  const MechTrial chain = RunMechTrials({chain_cell}, 1).front();
  const MechTrial crash = RunChainCrashTrials({chain_cell}, 1).front();
  const Json chain_report = ChainSweepToJson({chain}, {crash});
  ExpectSharedRowPlus(chain_report.Get("trials").AsArray().at(0), chain.spec, chain.run,
                      chain.verdict, {});
  ExpectSharedRowPlus(chain_report.Get("crash_trials").AsArray().at(0), crash.spec, crash.run,
                      crash.verdict, {"crash_at_us", "survived"});

  for (const FuzzScenario& spec : PreCopySweepSpecs(42)) {
    if (spec.workload == "Minprog" && spec.strategy == TransferStrategy::kPreCopy) {
      const MechTrial cell = RunMechTrials({spec}, 1).front();
      ExpectSharedRowPlus(PreCopySweepToJson({cell}).Get("cells").AsArray().at(0), cell.spec,
                          cell.run, cell.verdict,
                          {"live", "max_rounds", "target_downtime_ms", "completed"});
      break;
    }
  }

  const FuzzCorpusResult corpus = RunFuzzCorpus(1, 1, 1);
  const FuzzScenarioResult& fuzz = corpus.results.at(0);
  ExpectSharedRowPlus(FuzzCorpusToJson(corpus).Get("scenarios").AsArray().at(0), fuzz.scenario,
                      fuzz.run, fuzz.verdict,
                      {"backer_balanced", "cache_activity", "checkpoint", "checkpoint_ok",
                       "checkpoints", "cluster_census_ok", "cluster_hung", "content_cache",
                       "dedup_ok", "failure", "restores"});

  // A BENCH_sweep.json paper-grid row, and one row of each staged
  // beyond_paper study: substitution off, a prefetch depth, and a memory
  // size, whose row bench/beyond_paper.cc extends with `frames`.
  const std::set<std::string> paper_keys = {
      "bytes_bulk", "bytes_control", "bytes_core", "bytes_fault", "bytes_total",
      "core_transfer_us", "dest_imag_faults", "dest_imag_pages_fetched",
      "dest_prefetch_hits", "dest_prefetched_pages", "excise_amap_us", "excise_overall_us",
      "excise_rimas_us", "frac_real_transferred", "frac_total_transferred", "insert_time_us",
      "iou_caching", "messages_total", "netmsg_busy_us", "real_bytes_transferred",
      "remote_exec_us", "rimas_transfer_us", "spec_real_bytes", "spec_resident_bytes",
      "spec_total_bytes", "spec_zero_bytes", "transfer_plus_exec_us"};
  const std::vector<MechTrial> paper =
      RunMechTrials({PaperGridSpecs("Minprog")[1],
                     {.strategy = TransferStrategy::kPureIou, .iou_caching = false},
                     {.strategy = TransferStrategy::kPureIou, .prefetch = 2},
                     {.frames_per_host = 1024}},
                    1);
  for (const MechTrial& trial : paper) {
    SCOPED_TRACE(trial.spec.Describe());
    ExpectSharedRowPlus(PaperRowToJson(trial), trial.spec, trial.run, trial.verdict, paper_keys);
  }
  Json memory_row = PaperRowToJson(paper[3]);
  memory_row["frames"] = Json(paper[3].spec.frames_per_host);
  std::set<std::string> memory_keys = paper_keys;
  memory_keys.insert("frames");
  ExpectSharedRowPlus(memory_row, paper[3].spec, paper[3].run, paper[3].verdict, memory_keys);
}

// The paper's ablation knobs join the spec line only off their defaults, so
// no spec string of the failure, checkpoint, chain, pre-copy or fuzz reports
// moves.
TEST(Scenario, DescribePrintsTheAblationKnobsOnlyOffTheirDefaults) {
  const std::string plain = FuzzScenario{}.Describe();
  for (const char* knob : {"iou_caching", "frames", "rs_zero_scan"}) {
    EXPECT_EQ(plain.find(knob), std::string::npos) << plain;
  }
  EXPECT_EQ(FuzzScenario{.iou_caching = false}.Describe(), plain + " iou_caching=off");
  EXPECT_EQ(FuzzScenario{.frames_per_host = 512}.Describe(), plain + " frames=512");
  EXPECT_EQ(FuzzScenario{.rs_zero_scan_per_mb = Ms(3)}.Describe(),
            plain + " rs_zero_scan=3000us/MB");
  Tracer tracer;
  EXPECT_EQ(FuzzScenario{.tracer = &tracer}.Describe(), plain);
}

// Scenario construction is a pure function of the seed: the corpus a CI run
// checks is the corpus --replay-seed reconstructs.
TEST(ScenarioFuzz, ScenarioIsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ull, 17ull, 345ull}) {
    const FuzzScenario a = MakeScenario(seed);
    const FuzzScenario b = MakeScenario(seed);
    EXPECT_EQ(a.Describe(), b.Describe());
    EXPECT_EQ(a.host_count, b.host_count);
    EXPECT_EQ(a.prefetch, b.prefetch);
    EXPECT_EQ(a.drop, b.drop);
  }
}

// Every scenario runs on private simulations, so the corpus result —
// including the emitted JSON — cannot depend on worker-thread count.
TEST(ScenarioFuzz, CorpusJsonIsThreadCountInvariant) {
  const Json sequential = FuzzCorpusToJson(RunFuzzCorpus(1, 8, /*threads=*/1));
  const Json parallel = FuzzCorpusToJson(RunFuzzCorpus(1, 8, /*threads=*/4));
  EXPECT_EQ(sequential.Dump(), parallel.Dump());
  EXPECT_EQ(Fnv1aDigest(sequential.Dump()), kCorpusDigest)
      << "fuzz corpus changed: new digest 0x" << std::hex << Fnv1aDigest(sequential.Dump());
}

// The generator must keep exercising the interesting corners: across a
// modest seed range we expect heterogeneous calibrations, diskless hosts,
// re-migrations, lossy plans and crashes all to appear.
TEST(ScenarioFuzz, GeneratorCoversTheAdversarialCorners) {
  int calibrated = 0;
  int diskless = 0;
  int remigrate = 0;
  int lossy = 0;
  int crash = 0;
  int partition = 0;
  int cached = 0;
  int small_cache = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FuzzScenario sc = MakeScenario(seed);
    cached += sc.content_cache ? 1 : 0;
    small_cache += (sc.content_cache && sc.content_cache_pages <= 64) ? 1 : 0;
    calibrated += AnyCalibrated(sc.calibrations) ? 1 : 0;
    for (const HostCalibration& cal : sc.calibrations) {
      if (cal.diskless) {
        ++diskless;
        break;
      }
    }
    remigrate += sc.remigrate ? 1 : 0;
    lossy += (sc.drop > 0.0 || sc.duplicate > 0.0 || sc.delay > 0.0) ? 1 : 0;
    crash += (sc.crash_dest || sc.crash_source) ? 1 : 0;
    partition += sc.partition_transfer ? 1 : 0;
  }
  EXPECT_GT(calibrated, 10);
  EXPECT_GT(diskless, 2);
  EXPECT_GT(remigrate, 5);
  EXPECT_GT(lossy, 20);
  EXPECT_GT(crash, 5);
  EXPECT_GT(partition, 3);
  // The content-cache draw must keep both halves of the space populated,
  // including capacities small enough to force eviction mid-migration.
  EXPECT_GT(cached, 20);
  EXPECT_LT(cached, 44);
  EXPECT_GT(small_cache, 2);
}

}  // namespace
}  // namespace accent
