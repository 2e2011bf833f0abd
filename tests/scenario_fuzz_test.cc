// The fixed adversarial fuzz corpus (seeds 1..64) as individual ctest
// cases: every seeded scenario — random heterogeneous topology x workload
// x fault plan x strategy x optional re-migration — must satisfy all the
// standing oracles (content integrity, zero hangs, balanced backer
// references, the fleet census). A failing seed names itself: re-run it
// interactively with tools/migrate_sim --replay-seed=N.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/page_ref.h"
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

// The unmigrated run's planned pages at its kTerminate, folded the way
// ObservableChecksum folded them when each page's checksum was a
// byte-serial FNV-1a: this copy keeps the pins below on page contents,
// whatever function the integrity checksum uses.
std::uint64_t PinnedContentsFold(const std::string& workload, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  auto fnv1a = [](const PageRef& page) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (ByteCount i = 0; i < kPageSize; ++i) {
      hash = (hash ^ page.ByteAt(i)) * 0x100000001b3ull;
    }
    return hash;
  };
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(WorkloadByName(workload), bed.host(0), seed);
  bool finished = false;
  instance.process->set_on_terminate([&](Process* p) {
    finished = true;
    for (PageIndex page : instance.planned_touches) {
      mix(page);
      mix(fnv1a(p->space()->ReadPage(page)));
    }
  });
  instance.process->Start();
  EXPECT_TRUE(bed.RunGuarded() && finished) << workload;
  return h;
}

// The staged images' bytes and the traces that write them, pinned per
// program: every other integrity check compares two runs of the same code.
TEST(Scenario, ReferenceChecksumsArePinned) {
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"Minprog", 0x9d9a9b0854adb698ull},  {"Lisp-T", 0x4283768ac95b26baull},
      {"Lisp-Del", 0xb70e0f5541a139e3ull}, {"PM-Start", 0xa12397d47bc7ceacull},
      {"PM-Mid", 0x30023b4318158b05ull},   {"PM-End", 0xf84bdaa6ba1ccc26ull},
      {"Chess", 0x4470b78d935bd8f4ull}};
  ASSERT_EQ(pinned.size(), RepresentativeWorkloads().size());
  for (const auto& [workload, checksum] : pinned) {
    EXPECT_EQ(PinnedContentsFold(workload, 42), checksum) << workload;
  }
}

// The integrity reference by simulation: the process staged from `image`
// on host 0 of a default lossless testbed, run to completion there, never
// migrated, and folded with ObservableChecksum at its kTerminate.
std::uint64_t UnmigratedRunChecksum(const std::string& workload, std::uint64_t seed,
                                    const WorkloadImage& image) {
  Testbed bed;
  WorkloadInstance instance = BuildWorkload(WorkloadByName(workload), bed.host(0), seed, &image);
  bool finished = false;
  std::uint64_t checksum = 0;
  instance.process->set_on_terminate([&](Process* p) {
    finished = true;
    checksum = ObservableChecksum(*p->space(), bed.segments(), instance.planned_touches);
  });
  instance.process->Start();
  ACCENT_CHECK(bed.RunGuarded() && finished)
      << " unmigrated run of " << workload << " did not finish";
  return checksum;
}

// ReferenceChecksum folds the image and its trace without simulating, so
// it must give what the simulated unmigrated run gives: every program at
// seeds 42 and 1987, and the (workload, seed) of every corpus scenario.
TEST(Scenario, ReferenceFoldMatchesTheUnmigratedRun) {
  std::set<std::pair<std::string, std::uint64_t>> keys;
  for (const std::uint64_t seed : {42ull, 1987ull}) {
    for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
      keys.emplace(spec.name, seed);
    }
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FuzzScenario scenario = MakeScenario(seed);
    keys.emplace(scenario.workload, scenario.seed);
  }
  for (const auto& [workload, seed] : keys) {
    SCOPED_TRACE(testing::Message() << workload << " seed " << seed);
    const WorkloadImage image = BuildWorkloadImage(WorkloadByName(workload), seed);
    EXPECT_EQ(ReferenceChecksum(workload, seed, &image),
              UnmigratedRunChecksum(workload, seed, image));
  }
}

// A touch the unmigrated run faults on, here one in the BadMem guard below
// the layout, leaves no contents to fold: the fold fails as the run does.
TEST(ScenarioDeathTest, ReferenceFoldRejectsATouchOutsideTheImage) {
  const WorkloadImage image = BuildWorkloadImage(WorkloadByName("Minprog"), 42);
  WorkloadImage guarded = image;
  Trace ops = *image.trace;
  ops.insert(ops.begin(), TraceOp::Read(PageBase(image.regions.front().first - 1)));
  guarded.trace = std::make_shared<const Trace>(std::move(ops));
  EXPECT_DEATH(UnmigratedRunChecksum("Minprog", 42, guarded), "did not finish");
  EXPECT_DEATH(ReferenceChecksum("Minprog", 42, &guarded), "touches unmapped page");
}

// Staging generates no pattern page, and a run generates only the pages
// it reads: each planned touch once, whether the process writes it (the
// shared payload materialises before its clone) or only the checksum
// folds it.
TEST(WorkloadImage, RunsMaterialiseOnlyThePagesTheyRead) {
  constexpr std::uint64_t kSeed = 42;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    SCOPED_TRACE(spec.name);
    const std::uint64_t before = ReadPageCounters().pattern_pages_materialized;
    const WorkloadImage image = BuildWorkloadImage(spec, kSeed);
    Testbed bed;
    const WorkloadInstance staged = BuildWorkload(spec, bed.host(0), kSeed, &image);
    EXPECT_EQ(ReadPageCounters().pattern_pages_materialized, before);
    ReferenceChecksum(spec.name, kSeed, &image);
    EXPECT_EQ(ReadPageCounters().pattern_pages_materialized - before,
              staged.planned_touches.size());
  }
}

// One image serves the reference run and, for a pure-copy and a pure-IOU
// Lisp-Del spec, a lossless baseline and a lossy run; all of them write
// pages. Every run reports exactly what its unshared twin reports, every
// write clones a shared payload instead of writing the image in place, and
// the image's payloads die with it.
TEST(WorkloadImage, SharedImageChangesNoRunAndIsNeverWrittenInPlace) {
  constexpr std::uint64_t kSeed = 42;
  const WorkloadSpec& spec = WorkloadByName("Lisp-Del");
  const std::uint64_t reference = ReferenceChecksum(spec.name, kSeed);
  const std::uint64_t live_before = ReadPageCounters().live_payloads();
  {
    const WorkloadImage image = BuildWorkloadImage(spec, kSeed);
    ASSERT_EQ(image.pages.size(), spec.real_pages());
    std::uint64_t cow_breaks = ReadPageCounters().cow_breaks;
    EXPECT_EQ(ReferenceChecksum(spec.name, kSeed, &image), reference);
    EXPECT_GT(ReadPageCounters().cow_breaks, cow_breaks);

    for (TransferStrategy strategy : {TransferStrategy::kPureCopy, TransferStrategy::kPureIou}) {
      SCOPED_TRACE(StrategyName(strategy));
      FuzzScenario sc;
      sc.seed = kSeed;
      sc.workload = spec.name;
      sc.strategy = strategy;
      sc.drop = 0.02;
      sc.duplicate = 0.02;
      const MechRun baseline = RunMech(sc, FaultPlan{}, kSeed, &image);
      cow_breaks = ReadPageCounters().cow_breaks;
      const MechRun lossy = RunMech(sc, PlantFaults(sc, baseline), kSeed + 1, &image);
      EXPECT_GT(ReadPageCounters().cow_breaks, cow_breaks);
      const MechRun unshared_baseline = RunMech(sc, FaultPlan{}, kSeed);
      const MechRun unshared_lossy = RunMech(sc, PlantFaults(sc, baseline), kSeed + 1);

      for (const auto& [shared, unshared] : {std::pair{&baseline, &unshared_baseline},
                                             std::pair{&lossy, &unshared_lossy}}) {
        ASSERT_TRUE(shared->finished);
        EXPECT_EQ(shared->checksum, reference);
        EXPECT_EQ(MechRowToJson(sc, *shared, Classify(*shared, reference)).Dump(),
                  MechRowToJson(sc, *unshared, Classify(*unshared, reference)).Dump());
      }
    }

    Testbed bed;
    const WorkloadInstance staged = BuildWorkload(spec, bed.host(0), kSeed, &image);
    for (std::size_t i = 0; i < image.pages.size(); ++i) {
      ASSERT_EQ(image.pages[i], MakePatternPage(WorkloadPageSeed(kSeed, staged.real_page_list[i])))
          << "image page " << i;
    }
  }
  EXPECT_EQ(ReadPageCounters().live_payloads(), live_before);
}

// A trace op by op, as text.
std::string TraceText(const Trace& trace) {
  std::ostringstream text;
  for (const TraceOp& op : trace) {
    switch (op.kind) {
      case TraceOp::Kind::kCompute:
        text << " c" << op.compute.count();
        break;
      case TraceOp::Kind::kTouch:
        text << (op.write ? " w" : " r") << op.addr;
        if (op.write) {
          text << '=' << static_cast<int>(op.value);
        }
        break;
      case TraceOp::Kind::kTerminate:
        text << " t";
        break;
    }
  }
  return text.str();
}

// What one staging holds: the ids, the AMap, the resident frames, the page
// lists and the trace.
void ExpectSameStaging(const WorkloadInstance& want, Testbed& want_bed,
                       const WorkloadInstance& got, Testbed& got_bed) {
  const AddressSpace& want_space = *want.process->space();
  const AddressSpace& got_space = *got.process->space();
  EXPECT_EQ(got.process->id(), want.process->id());
  EXPECT_EQ(got_space.id(), want_space.id());
  EXPECT_TRUE(got_space.amap() == want_space.amap());
  EXPECT_EQ(got_bed.host(0)->memory->PagesOf(got_space.id()),
            want_bed.host(0)->memory->PagesOf(want_space.id()));
  EXPECT_EQ(got.resident_pages, want.resident_pages);
  EXPECT_EQ(got.real_page_list, want.real_page_list);
  EXPECT_EQ(got.planned_touches, want.planned_touches);
  EXPECT_EQ(TraceText(*got.process->trace()), TraceText(*want.process->trace()));
}

// Staging from a shared image builds what a staging that plans for itself
// builds, id for id, and every staging from one image runs its one trace.
TEST(WorkloadImage, SharedImageStagesWhatAFreshPlanStages) {
  for (const std::uint64_t seed : {42ull, 1987ull}) {
    for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
      SCOPED_TRACE(testing::Message() << spec.name << " seed " << seed);
      const WorkloadImage image = BuildWorkloadImage(spec, seed);
      Testbed fresh_bed;
      const WorkloadInstance fresh = BuildWorkload(spec, fresh_bed.host(0), seed);
      Testbed shared_bed;
      const WorkloadInstance shared = BuildWorkload(spec, shared_bed.host(0), seed, &image);
      ASSERT_NO_FATAL_FAILURE(ExpectSameStaging(fresh, fresh_bed, shared, shared_bed));

      Testbed again_bed;
      const WorkloadInstance again = BuildWorkload(spec, again_bed.host(0), seed, &image);
      ASSERT_NO_FATAL_FAILURE(ExpectSameStaging(shared, shared_bed, again, again_bed));
      EXPECT_EQ(shared.process->trace(), image.trace);
      EXPECT_EQ(again.process->trace(), image.trace);
    }
  }
}

// Every program's staging at seeds 42 and 1987 in one digest: its trace op
// by op, its resident set, its AMap and its resident frames. Planning may
// change how it stores its picks, and staging the order it builds its maps
// in, never what either builds.
TEST(WorkloadImage, StagingsArePinned) {
  std::uint64_t digest = kFnv1aOffsetBasis;
  for (const std::uint64_t seed : {42ull, 1987ull}) {
    for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
      const WorkloadImage image = BuildWorkloadImage(spec, seed);
      Testbed bed;
      const WorkloadInstance staged = BuildWorkload(spec, bed.host(0), seed, &image);
      const AddressSpace& space = *staged.process->space();
      std::ostringstream text;
      text << spec.name << ' ' << seed << "\nops" << TraceText(*staged.process->trace())
           << "\nresident";
      for (PageIndex page : staged.resident_pages) {
        text << ' ' << page;
      }
      text << "\namap";
      space.amap().ForEach([&](const AMap::Interval& iv) {
        text << ' ' << iv.begin << '-' << iv.end << ' ' << MemClassName(iv.value);
      });
      text << "\nframes";
      for (PageIndex page : bed.host(0)->memory->PagesOf(space.id())) {
        text << ' ' << page;
      }
      text << '\n';
      digest = Fnv1a(digest, text.str());
    }
  }
  EXPECT_EQ(digest, 0x6117c403d02d4bc2ull);
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
