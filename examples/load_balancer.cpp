// Automatic migration for load balancing — the future-work direction of
// section 6, built on the repository's LoadBalancerPolicy.
//
// Six compute-heavy jobs all start on host 1 of a three-host cluster. The
// policy samples per-host run queues every few seconds and migrates the
// cheapest-to-move process (the dispersal-aware metric of section 6) to
// the idlest host, using pure-IOU transfer so relocation is nearly free.
// The same jobs are then run without migration: the balanced cluster
// finishes its makespan ~1.6x sooner.
//
//   $ ./build/examples/load_balancer
#include <cstdio>
#include <map>

#include "src/base/rng.h"
#include "src/experiments/testbed.h"
#include "src/metrics/table.h"
#include "src/policy/load_balancer.h"

using namespace accent;  // NOLINT: example brevity

namespace {

constexpr int kJobs = 6;
constexpr double kJobSeconds = 40.0;

std::unique_ptr<Process> MakeJob(Testbed* bed, int index) {
  auto space = std::make_unique<AddressSpace>(SpaceId(bed->sim().AllocateId()),
                                              bed->host(0)->id);
  Segment* image = bed->segments().CreateReal(256 * kPageSize, "job-image");
  for (PageIndex p = 0; p < 256; ++p) {
    image->StorePage(p, MakePatternPage(p + index * 1000));
  }
  space->MapReal(0, 256 * kPageSize, image, 0, false);
  space->Validate(256 * kPageSize, 512 * kPageSize);

  auto proc = std::make_unique<Process>(ProcId(bed->sim().AllocateId()),
                                        "job-" + std::to_string(index), bed->host(0),
                                        std::move(space), index);
  TraceBuilder trace;
  Rng rng(index + 1);
  const int slices = 40;
  for (int s = 0; s < slices; ++s) {
    trace.Compute(Sec(kJobSeconds / slices));
    trace.Read(PageBase(rng.NextBelow(256)));  // touch a little memory as it goes
  }
  trace.Terminate();
  proc->SetTrace(trace.Build(), 0);
  return proc;
}

struct ClusterOutcome {
  SimTime makespan{0};
  std::uint64_t migrations = 0;
  std::uint64_t samples = 0;
};

ClusterOutcome RunCluster(bool balance, std::map<std::string, int>* placement,
                          PolicyConfig policy_config = {}) {
  TestbedConfig config;
  config.host_count = 3;
  Testbed bed(config);

  std::vector<std::unique_ptr<Process>> jobs;
  int remaining = kJobs;
  SimTime finish{0};
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(MakeJob(&bed, i));
    Process* job = jobs.back().get();
    bed.manager(0)->RegisterLocal(job);
    job->set_on_terminate([&, job](Process*) {
      (*placement)[job->name()] = 1;
      if (--remaining == 0) {
        finish = bed.sim().Now();
      }
    });
  }
  // Jobs that finish after migrating terminate as adopted processes; hook
  // every manager's insertions so completions are counted on any host
  // (the policy may even balance a job back to host 1).
  for (int h = 0; h < 3; ++h) {
    bed.manager(h)->set_on_insert([&, h](Process* arrived) {
      (*placement)[arrived->name()] = h + 1;
      arrived->set_on_terminate([&](Process*) {
        if (--remaining == 0) {
          finish = bed.sim().Now();
        }
      });
    });
  }

  for (auto& job : jobs) {
    job->Start();
  }

  LoadBalancerPolicy policy(&bed.sim(), policy_config);
  if (balance) {
    for (int h = 0; h < 3; ++h) {
      policy.AddHost(bed.host(h), bed.manager(h));
    }
    policy.Start();
  }

  bed.sim().Run();
  ACCENT_CHECK(remaining == 0);
  return ClusterOutcome{finish, policy.migrations_triggered(), policy.samples_taken()};
}

}  // namespace

int main() {
  std::printf("%d jobs of ~%.0f s CPU each, all born on host 1 of a 3-host cluster\n\n",
              kJobs, kJobSeconds);

  PolicyConfig headline;
  headline.sample_period = Sec(3.0);
  headline.strategy = TransferStrategy::kPureIou;

  std::map<std::string, int> unbalanced_placement;
  const ClusterOutcome unbalanced = RunCluster(false, &unbalanced_placement);
  std::map<std::string, int> balanced_placement;
  const ClusterOutcome balanced = RunCluster(true, &balanced_placement, headline);
  std::printf("(policy: %llu samples, %llu migrations triggered)\n\n",
              static_cast<unsigned long long>(balanced.samples),
              static_cast<unsigned long long>(balanced.migrations));

  TextTable table({"Job", "No migration", "With automatic balancing"});
  for (const auto& [name, host] : balanced_placement) {
    table.AddRow({name, "host " + std::to_string(unbalanced_placement[name]),
                  "host " + std::to_string(host)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Makespan without migration: %7.1f s\n", ToSeconds(unbalanced.makespan));
  std::printf("Makespan with balancing:    %7.1f s  (%.2fx faster)\n",
              ToSeconds(balanced.makespan),
              ToSeconds(unbalanced.makespan) / ToSeconds(balanced.makespan));
  std::printf("\nEach relocation cost ~1 s of context transfer; the address spaces\n"
              "followed lazily, page by page, only where actually referenced.\n");

  // Sweep the policy knobs: hysteresis trades reaction time for stability,
  // the dispersal weight changes which process gets moved.
  std::printf("\nPolicy configuration sweep (threshold 2, 3 s sample period):\n\n");
  TextTable sweep({"Hysteresis", "Dispersal wt", "Migrations", "Makespan", "vs none"});
  for (int hysteresis : {0, 2}) {
    for (double weight : {0.0, 1.0, 8.0}) {
      PolicyConfig config = headline;
      config.hysteresis = hysteresis;
      config.dispersal_weight = weight;
      std::map<std::string, int> placement;
      const ClusterOutcome outcome = RunCluster(true, &placement, config);
      sweep.AddRow({std::to_string(hysteresis), FormatDouble(weight, 1),
                    std::to_string(outcome.migrations),
                    FormatSeconds(ToSeconds(outcome.makespan)),
                    FormatDouble(ToSeconds(unbalanced.makespan) /
                                     ToSeconds(outcome.makespan),
                                 2) +
                        "x"});
    }
  }
  std::printf("%s\n", sweep.ToString().c_str());
  return 0;
}
