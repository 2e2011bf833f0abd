// migrate_sim: command-line driver for single migration trials.
//
//   migrate_sim --list
//   migrate_sim --workload=Lisp-Del --strategy=iou --prefetch=3
//   migrate_sim --workload=PM-Start --strategy=rs --series
//
// Runs one trial on the simulated two-Perq testbed and prints the full
// measurement record: phase timings, byte traffic by category, fault
// behaviour, message-handling cost, and (with --series) the transfer-rate
// series of Figure 4-5.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/base/logging.h"
#include "src/experiments/report.h"
#include "src/experiments/scenario_fuzz.h"
#include "src/experiments/sweep.h"
#include "src/metrics/table.h"
#include "src/trace/trace.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

void PrintUsage() {
  std::printf(
      "usage: migrate_sim [options]\n"
      "  --list                 list the representative workloads and exit\n"
      "  --workload=NAME        which process to migrate (default Minprog)\n"
      "  --strategy=copy|iou|rs|precopy\n"
      "                         transfer strategy (default iou)\n"
      "  --prefetch=N           pages prefetched per imaginary fault (default 0)\n"
      "  --precopy-rounds=N     pre-copy: max live rounds before freezing (default 3)\n"
      "  --precopy-stop=N       pre-copy: freeze once <= N pages are dirty (default 4)\n"
      "  --target-downtime-ms=N pre-copy: freeze early once the predicted final\n"
      "                         round fits in N ms (default off)\n"
      "  --seed=N               trial seed (default 42)\n"
      "  --frames=N             destination physical memory frames (default 4096)\n"
      "  --no-iou-caching       disable NetMsgServer IOU substitution\n"
      "  --content-cache        enable the content-addressed page service\n"
      "                         (capacity: ACCENT_CONTENT_CACHE_PAGES, default 4096)\n"
      "  --checkpoint           enable the durable checkpoint store\n"
      "  --trace-out=FILE       write a Chrome-trace JSON of the trial (Perfetto)\n"
      "  --trace-verbose        also record per-fragment / per-dispatch events\n"
      "  --series               print the byte transfer-rate series\n"
      "  --csv                  emit one machine-readable CSV row\n"
      "  --sweep                run the full strategy x prefetch grid as CSV\n"
      "  --replay-seed=N        re-run one fuzz-corpus scenario (see\n"
      "                         bench/fuzz_corpus) and print its verdict\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  if (arg[len] == '\0') {
    value->clear();
    return true;
  }
  if (arg[len] != '=') {
    return false;
  }
  *value = arg + len + 1;
  return true;
}

// Re-runs one fuzzed scenario by seed — the loop a failing corpus run
// prints ("replay with: tools/migrate_sim --replay-seed=N") lands here.
int ReplayScenario(std::uint64_t seed) {
  // Scenario failures log their diagnosis; make sure it prints.
  if (Logger::Get().level() < LogLevel::kError) {
    Logger::Get().set_level(LogLevel::kError);
  }
  const FuzzScenario scenario = MakeScenario(seed);
  std::printf("scenario: %s\n", scenario.Describe().c_str());
  const FuzzScenarioResult r = RunScenario(scenario);
  std::printf("outcome:            %s\n", FailureOutcomeName(r.outcome));
  std::printf("rolled back:        %s\n", r.rolled_back ? "yes" : "no");
  std::printf("remigrated:         %s\n", r.remigrated ? "yes" : "no");
  std::printf("integrity ok:       %s\n", r.integrity_ok ? "yes" : "NO");
  std::printf("hang:               %s\n", r.hang ? "YES" : "no");
  std::printf("backer balanced:    %s\n", r.backer_balanced ? "yes" : "NO");
  std::printf("fleet census ok:    %s\n", r.cluster_census_ok ? "yes" : "NO");
  std::printf("fleet hung:         %s\n", r.cluster_hung ? "YES" : "no");
  std::printf("diskless anchors:   %llu\n",
              static_cast<unsigned long long>(r.diskless_backing_anchors));
  std::printf("checkpoint:         %s\n", scenario.checkpoint ? "on" : "off");
  std::printf("checkpoint ok:      %s\n", r.checkpoint_ok ? "yes" : "NO");
  std::printf("checkpoints:        %llu\n", static_cast<unsigned long long>(r.checkpoints));
  std::printf("restores:           %llu\n", static_cast<unsigned long long>(r.restores));
  if (!r.failure.empty()) {
    std::printf("failure:            %s\n", r.failure.c_str());
  }
  std::printf("verdict:            %s\n", r.ok() ? "PASS" : "FAIL");
  return r.ok() ? 0 : 1;
}

int Run(int argc, char** argv) {
  FuzzScenario config;
  config.strategy = TransferStrategy::kPureIou;
  bool series = false;
  bool csv = false;
  bool sweep = false;
  std::string trace_out;
  bool trace_verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--list", &value)) {
      std::printf("Representative workloads (section 4.1):\n");
      for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
        std::printf("  %-9s Real %9s B, total %13s B, RS %9s B — %s\n", spec.name.c_str(),
                    FormatWithCommas(spec.real_bytes).c_str(),
                    FormatWithCommas(spec.total_bytes()).c_str(),
                    FormatWithCommas(spec.resident_bytes).c_str(),
                    spec.pattern == AccessPattern::kSequentialScan ? "sequential scan"
                    : spec.pattern == AccessPattern::kRandomClustered ? "clustered random"
                    : spec.pattern == AccessPattern::kComputeBound ? "compute bound"
                                                                    : "minimal");
      }
      return 0;
    }
    if (ParseFlag(argv[i], "--workload", &value)) {
      config.workload = value;
    } else if (ParseFlag(argv[i], "--strategy", &value)) {
      if (value == "copy") {
        config.strategy = TransferStrategy::kPureCopy;
      } else if (value == "iou") {
        config.strategy = TransferStrategy::kPureIou;
      } else if (value == "rs") {
        config.strategy = TransferStrategy::kResidentSet;
      } else if (value == "precopy") {
        config.strategy = TransferStrategy::kPreCopy;
      } else {
        std::fprintf(stderr, "unknown strategy '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--prefetch", &value)) {
      config.prefetch = static_cast<std::uint32_t>(std::stoul(value));
    } else if (ParseFlag(argv[i], "--precopy-rounds", &value)) {
      config.precopy.max_rounds = std::stoi(value);
    } else if (ParseFlag(argv[i], "--precopy-stop", &value)) {
      config.precopy.stop_threshold = static_cast<PageIndex>(std::stoul(value));
    } else if (ParseFlag(argv[i], "--target-downtime-ms", &value)) {
      config.precopy.target_downtime = Ms(std::stoll(value));
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      config.seed = std::stoull(value);
    } else if (ParseFlag(argv[i], "--frames", &value)) {
      config.frames_per_host = std::stoul(value);
    } else if (ParseFlag(argv[i], "--no-iou-caching", &value)) {
      config.iou_caching = false;
    } else if (ParseFlag(argv[i], "--content-cache", &value)) {
      config.content_cache = true;
      if (const char* pages = std::getenv("ACCENT_CONTENT_CACHE_PAGES"); pages != nullptr) {
        const std::int64_t parsed = std::strtoll(pages, nullptr, 10);
        if (parsed < 1) {
          std::fprintf(stderr, "ACCENT_CONTENT_CACHE_PAGES must be >= 1, got '%s'\n", pages);
          return 2;
        }
        config.content_cache_pages = parsed;
      }
    } else if (ParseFlag(argv[i], "--checkpoint", &value)) {
      config.checkpoint = true;
    } else if (ParseFlag(argv[i], "--trace-out", &value)) {
      trace_out = value;
    } else if (ParseFlag(argv[i], "--trace-verbose", &value)) {
      trace_verbose = true;
    } else if (ParseFlag(argv[i], "--series", &value)) {
      series = true;
    } else if (ParseFlag(argv[i], "--csv", &value)) {
      csv = true;
    } else if (ParseFlag(argv[i], "--sweep", &value)) {
      sweep = true;
    } else if (ParseFlag(argv[i], "--replay-seed", &value)) {
      return ReplayScenario(std::stoull(value));
    } else if (ParseFlag(argv[i], "--help", &value) || ParseFlag(argv[i], "-h", &value)) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n\n", argv[i]);
      PrintUsage();
      return 2;
    }
  }

  if (sweep) {
    std::printf("%s", TrialsToCsv(RunMechTrials(PaperGridSpecs(config.workload, config.seed)))
                          .c_str());
    return 0;
  }

  Tracer tracer;
  if (!trace_out.empty()) {
    tracer.set_verbose(trace_verbose);
    config.tracer = &tracer;
  }

  const MechTrial r = RunMechTrials({config}, 1).front();
  if (!trace_out.empty()) {
    if (!tracer.WriteChromeTraceFile(trace_out)) {
      std::fprintf(stderr, "cannot write trace to '%s'\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu events -> %s (open in https://ui.perfetto.dev)\n",
                 tracer.size(), trace_out.c_str());
  }
  if (r.verdict.outcome != FailureOutcome::kCompleted || !r.verdict.integrity_ok) {
    std::fprintf(stderr, "%s: %s %s\n", r.spec.Describe().c_str(),
                 FailureOutcomeName(r.verdict.outcome), r.verdict.failure.c_str());
    return 1;
  }
  if (csv) {
    std::printf("%s\n%s\n", TrialCsvHeader().c_str(), TrialCsvRow(r).c_str());
    if (series) {
      std::printf("%s", SeriesToCsv(r.run).c_str());
    }
    return 0;
  }

  std::printf("%s", TrialReport(r).c_str());

  if (series) {
    std::printf("\nTransfer-rate series (bucket %.1f s):\n", ToSeconds(kTrafficBucket));
    for (const auto& bucket : r.run.series) {
      ByteCount fault = bucket.bytes[static_cast<int>(TrafficKind::kFaultData)];
      ByteCount total = 0;
      for (ByteCount b : bucket.bytes) {
        total += b;
      }
      if (total == 0) {
        continue;
      }
      std::printf("  %8.1f s  %10s B (%s B fault)\n", ToSeconds(bucket.start),
                  FormatWithCommas(total).c_str(), FormatWithCommas(fault).c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Run(argc, argv); }
