// Automatic load-balancing tests (§6 future work): the placement rule the
// fleet and LoadBalancerPolicy share (host pair, strategy degradation,
// victim rank), and the policy's sampling, convergence and no-thrash
// behaviour on a testbed.
#include <gtest/gtest.h>

#include "src/experiments/testbed.h"
#include "src/policy/load_balancer.h"

namespace accent {
namespace {

using Footprint = MigrationCostModel::Footprint;

const HostCalibration kIdentity{};

Footprint MakeFootprint(std::int64_t map_entries, std::int64_t real_pages,
                        std::int64_t resident_pages) {
  Footprint fp;
  fp.map_entries = map_entries;
  fp.real_pages = real_pages;
  fp.resident_pages = resident_pages;
  return fp;
}

// ---- the shared host pair ---------------------------------------------------

TEST(SharedRule, HostPairSkipsTaskedHosts) {
  const std::vector<HostCalibration> cals(4);
  // Host 0 is the busiest and host 1 the idlest, but both are tasked.
  const std::vector<int> runnable{9, 0, 5, 2};
  const auto pair = PickHostPair(runnable, {true, true, false, false}, cals, 2);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->source, 2u);
  EXPECT_EQ(pair->target, 3u);
}

TEST(SharedRule, HostPairFirstIndexWinsTies) {
  const std::vector<HostCalibration> cals(5);
  const auto pair = PickHostPair({1, 6, 1, 6, 3}, std::vector<bool>(5, false), cals, 2);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->source, 1u);
  EXPECT_EQ(pair->target, 0u);
}

TEST(SharedRule, HostPairFasterCpuWinsDestinationAtEqualLoad) {
  const std::vector<int> runnable{5, 1, 1, 1};
  const std::vector<bool> untasked(4, false);
  std::vector<HostCalibration> cals(4);
  cals[2].cpu_multiplier = 4.0;
  const auto faster = PickHostPair(runnable, untasked, cals, 2);
  ASSERT_TRUE(faster.has_value());
  EXPECT_EQ(faster->source, 0u);
  EXPECT_EQ(faster->target, 2u);
  // A slower CPU never wins the tie, and identity calibrations compare
  // equal: the first index keeps the destination.
  cals[2].cpu_multiplier = 0.5;
  EXPECT_EQ(PickHostPair(runnable, untasked, cals, 2)->target, 1u);
  const auto identity = PickHostPair(runnable, untasked, std::vector<HostCalibration>(4), 2);
  ASSERT_TRUE(identity.has_value());
  EXPECT_EQ(identity->target, 1u);
}

TEST(SharedRule, HostPairNothingWhenUntaskedSpreadIsUnderThreshold) {
  const std::vector<HostCalibration> cals(4);
  // The whole row spreads 8, but the untasked hosts only 1: the fleet's
  // "pressure sits on tasked hosts, keep the streak" case.
  const std::vector<int> runnable{8, 0, 3, 2};
  EXPECT_FALSE(PickHostPair(runnable, {true, true, false, false}, cals, 2).has_value());
  EXPECT_TRUE(PickHostPair(runnable, {true, true, false, false}, cals, 1).has_value());
  // One untasked host cannot be both ends.
  EXPECT_FALSE(PickHostPair(runnable, {true, true, true, false}, cals, 1).has_value());
  // A balanced row picks nothing either.
  EXPECT_FALSE(PickHostPair({2, 2, 2, 2}, std::vector<bool>(4, false), cals, 1).has_value());

  // Through the governor: the streak keeps counting while no pair exists,
  // and resets once a pair fires.
  ImbalanceGovernor governor(2, 0);
  EXPECT_FALSE(governor.Decide(runnable, {true, true, false, false}, cals).has_value());
  EXPECT_EQ(governor.streak(), 1);
  EXPECT_TRUE(governor.Decide(runnable, {false, false, false, false}, cals).has_value());
  EXPECT_EQ(governor.streak(), 0);
}

// ---- the shared strategy degradation -------------------------------------

TEST(SharedRule, OnlyOwedPageStrategiesOffADisklessSourceWithoutAStoreDegrade) {
  for (TransferStrategy requested :
       {TransferStrategy::kPureCopy, TransferStrategy::kPureIou, TransferStrategy::kResidentSet,
        TransferStrategy::kPreCopy}) {
    for (bool diskless : {false, true}) {
      for (bool store : {false, true}) {
        HostCalibration source;
        source.diskless = diskless;
        const bool owes = requested == TransferStrategy::kPureIou ||
                          requested == TransferStrategy::kResidentSet;
        const TransferStrategy want =
            diskless && !store && owes ? TransferStrategy::kPureCopy : requested;
        EXPECT_EQ(EffectiveStrategy(requested, source, store), want)
            << StrategyName(requested) << " diskless=" << diskless << " store=" << store;
      }
    }
  }
}

// ---- the shared victim rank -------------------------------------------------

TEST(SharedRule, RankOrdersIdentityRowsByAnchorBytes) {
  const CostTable costs;
  // The second anchors the least at weight 1 (16 + 16 pages), the third at
  // weight 0 (8 pages).
  const std::vector<Footprint> fps{MakeFootprint(4, 64, 8), MakeFootprint(4, 16, 16),
                                   MakeFootprint(4, 8, 32)};
  const VictimRank weight_one{costs, TransferStrategy::kPureIou, 1.0, false, kIdentity,
                              kIdentity};
  EXPECT_EQ(weight_one.Score(fps[1]), static_cast<std::int64_t>(AnchorBytes(fps[1], 1.0)));
  EXPECT_EQ(weight_one.Pick(fps), 1u);
  const VictimRank weight_zero{costs, TransferStrategy::kPureIou, 0.0, false, kIdentity,
                               kIdentity};
  EXPECT_EQ(weight_zero.Pick(fps), 2u);
  EXPECT_FALSE(weight_one.Pick({}).has_value());
}

TEST(SharedRule, RankOrdersCalibratedRowsByRelocationCost) {
  const CostTable costs;
  // Many map entries but little memory, against few entries and more
  // memory: the anchor metric prefers the first, the end-to-end cost the
  // second (every map entry costs AMap, RIMAS, wire and insert time).
  const std::vector<Footprint> fps{MakeFootprint(200, 8, 0), MakeFootprint(1, 16, 0)};
  HostCalibration slow_target;
  slow_target.cpu_multiplier = 0.5;
  ASSERT_LT(AnchorBytes(fps[0], 1.0), AnchorBytes(fps[1], 1.0));
  ASSERT_GT(MigrationCostModel::RelocationCost(costs, TransferStrategy::kPureIou, fps[0],
                                               kIdentity, slow_target),
            MigrationCostModel::RelocationCost(costs, TransferStrategy::kPureIou, fps[1],
                                               kIdentity, slow_target));
  const VictimRank homogeneous{costs, TransferStrategy::kPureIou, 1.0, false, kIdentity,
                               slow_target};
  EXPECT_EQ(homogeneous.Pick(fps), 0u);
  const VictimRank calibrated{costs, TransferStrategy::kPureIou, 1.0, true, kIdentity,
                              slow_target};
  EXPECT_EQ(calibrated.Score(fps[1]),
            MigrationCostModel::RelocationCost(costs, TransferStrategy::kPureIou, fps[1],
                                               kIdentity, slow_target)
                .count());
  EXPECT_EQ(calibrated.Pick(fps), 1u);
}

TEST(SharedRule, RankFirstCandidateWinsTies) {
  const CostTable costs;
  const std::vector<Footprint> fps{MakeFootprint(9, 32, 4), MakeFootprint(3, 8, 4),
                                   MakeFootprint(3, 8, 4)};
  const VictimRank homogeneous{costs, TransferStrategy::kPureIou, 1.0, false, kIdentity,
                               kIdentity};
  EXPECT_EQ(homogeneous.Pick(fps), 1u);
  const VictimRank calibrated{costs, TransferStrategy::kPureIou, 1.0, true, kIdentity,
                              kIdentity};
  EXPECT_EQ(calibrated.Pick(fps), 1u);
}

// ---- LoadBalancerPolicy on a testbed ----------------------------------------

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() : bed(MakeConfig()) {}

  static TestbedConfig MakeConfig() {
    TestbedConfig config;
    config.host_count = 3;
    return config;
  }

  // `touch_pages` limits the pages the trace cycles through (0 = all of the
  // image), so tests can shape the resident set independently of RealMem.
  std::unique_ptr<Process> MakeJobOn(Testbed& b, const std::string& name, SimDuration compute,
                                     PageIndex image_pages, PageIndex touch_pages = 0) {
    auto space = std::make_unique<AddressSpace>(SpaceId(b.sim().AllocateId()),
                                                b.host(0)->id);
    Segment* image = b.segments().CreateReal(image_pages * kPageSize, "img");
    for (PageIndex p = 0; p < image_pages; ++p) {
      image->StorePage(p, MakePatternPage(p + 1));
    }
    space->MapReal(0, image_pages * kPageSize, image, 0, false);
    auto proc = std::make_unique<Process>(ProcId(b.sim().AllocateId()), name, b.host(0),
                                          std::move(space), 1);
    TraceBuilder trace;
    const PageIndex cycle = touch_pages == 0 ? image_pages : touch_pages;
    const auto slices = std::max<std::int64_t>(1, compute / Sec(1.0));
    for (std::int64_t i = 0; i < slices; ++i) {
      trace.Compute(compute / slices);
      trace.Read(PageBase(static_cast<PageIndex>(i) % cycle));
    }
    trace.Terminate();
    proc->SetTrace(trace.Build(), 0);
    return proc;
  }

  std::unique_ptr<Process> MakeJob(const std::string& name, SimDuration compute,
                                   PageIndex image_pages, PageIndex touch_pages = 0) {
    return MakeJobOn(bed, name, compute, image_pages, touch_pages);
  }

  // The shared rank as a homogeneous row applies it at `dispersal_weight`.
  VictimRank AnchorRank(double dispersal_weight = 1.0) {
    return VictimRank{*bed.host(0)->costs, TransferStrategy::kPureIou, dispersal_weight, false,
                      kIdentity, kIdentity};
  }

  // Three hosts, each calibrated as given.
  static TestbedConfig CalibratedConfig(std::vector<HostCalibration> calibrations) {
    TestbedConfig config = MakeConfig();
    config.calibrations = std::move(calibrations);
    return config;
  }

  // A policy over every host of `b`.
  static LoadBalancerPolicy MakePolicyOn(Testbed& b, const PolicyConfig& config) {
    LoadBalancerPolicy policy(&b.sim(), config);
    for (int i = 0; i < b.host_count(); ++i) {
      policy.AddHost(b.host(i), b.manager(i));
    }
    return policy;
  }

  LoadBalancerPolicy MakePolicy(PolicyConfig config = PolicyConfig{}) {
    return MakePolicyOn(bed, config);
  }

  Testbed bed;
};

TEST_F(PolicyTest, SampleLoadsCountsRunnableProcesses) {
  auto a = MakeJob("a", Sec(30.0), 8);
  auto b = MakeJob("b", Sec(30.0), 8);
  bed.manager(0)->RegisterLocal(a.get());
  bed.manager(0)->RegisterLocal(b.get());
  a->Start();
  b->Start();
  bed.sim().RunUntil(Ms(100));  // let the engines queue their CPU slices

  LoadBalancerPolicy policy = MakePolicy();
  const auto loads = policy.SampleLoads();
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_EQ(loads[0], 2);
  EXPECT_EQ(loads[1], 0);
  EXPECT_EQ(loads[2], 0);
}

TEST_F(PolicyTest, DispersalAwareCandidatePrefersLightAnchor) {
  auto heavy = MakeJob("heavy", Sec(30.0), 256);  // 128 KB anchored
  auto light = MakeJob("light", Sec(30.0), 8);    // 4 KB anchored
  bed.manager(0)->RegisterLocal(heavy.get());
  bed.manager(0)->RegisterLocal(light.get());
  EXPECT_GT(AnchorBytes(FootprintOf(*heavy), 1.0), AnchorBytes(FootprintOf(*light), 1.0));
  EXPECT_EQ(LoadBalancerPolicy::PickCandidate(*bed.manager(0), AnchorRank()), light.get());
}

TEST_F(PolicyTest, BalancesAnOverloadedHost) {
  std::vector<std::unique_ptr<Process>> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob("job-" + std::to_string(i), Sec(60.0), 16));
    bed.manager(0)->RegisterLocal(jobs.back().get());
    jobs.back()->Start();
  }

  PolicyConfig config;
  config.sample_period = Sec(3.0);
  LoadBalancerPolicy policy = MakePolicy(config);
  policy.Start();
  bed.sim().Run();

  EXPECT_GE(policy.migrations_triggered(), 3u);  // spread 6 jobs off host 1
  EXPECT_GT(policy.samples_taken(), 3u);
  // Work landed on the other hosts and finished there.
  EXPECT_GE(bed.manager(1)->adopted().size() + bed.manager(2)->adopted().size(), 3u);
  // Every job finished somewhere (husks of re-balanced processes remain
  // kExcised in their intermediate host's adopted list).
  int finished = 0;
  for (const auto& job : jobs) {
    if (job->done()) {
      ++finished;
    }
  }
  for (int host = 0; host < 3; ++host) {  // a job can be balanced back home
    for (const auto& adopted : bed.manager(host)->adopted()) {
      if (adopted->state() != ProcState::kExcised) {
        EXPECT_TRUE(adopted->done()) << adopted->name();
        ++finished;
      }
    }
  }
  EXPECT_EQ(finished, 6);
  // Convergence: no residual imbalance above threshold.
  for (int runnable : policy.SampleLoads()) {
    EXPECT_EQ(runnable, 0);
  }
}

TEST_F(PolicyTest, NoMigrationBelowThreshold) {
  auto a = MakeJob("a", Sec(20.0), 8);
  bed.manager(0)->RegisterLocal(a.get());
  a->Start();

  PolicyConfig config;
  config.sample_period = Sec(2.0);
  config.imbalance_threshold = 2;  // one process never trips it
  LoadBalancerPolicy policy = MakePolicy(config);
  policy.Start();
  bed.sim().Run();
  EXPECT_EQ(policy.migrations_triggered(), 0u);
  EXPECT_TRUE(a->done());
}

TEST_F(PolicyTest, HysteresisWaitsOutTransientImbalance) {
  std::vector<std::unique_ptr<Process>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(MakeJob("job-" + std::to_string(i), Sec(60.0), 16));
    bed.manager(0)->RegisterLocal(jobs.back().get());
    jobs.back()->Start();
  }

  PolicyConfig config;
  config.sample_period = Sec(3.0);
  config.hysteresis = 2;  // act on the third consecutive imbalanced sample
  LoadBalancerPolicy policy = MakePolicy(config);
  policy.Start();

  // Probe just after each of the first three samples: the imbalance is
  // present from the start, but the policy must sit out two full periods.
  std::uint64_t after_first = 99, after_second = 99, after_third = 99;
  bed.sim().ScheduleAt(Sec(3.0) + Ms(1), [&]() { after_first = policy.migrations_triggered(); });
  bed.sim().ScheduleAt(Sec(6.0) + Ms(1), [&]() { after_second = policy.migrations_triggered(); });
  bed.sim().ScheduleAt(Sec(9.0) + Ms(1), [&]() { after_third = policy.migrations_triggered(); });
  bed.sim().Run();

  EXPECT_EQ(after_first, 0u);
  EXPECT_EQ(after_second, 0u);
  EXPECT_EQ(after_third, 1u);
  EXPECT_GE(policy.migrations_triggered(), 1u);
  for (int runnable : policy.SampleLoads()) {
    EXPECT_EQ(runnable, 0);  // still converges, just later
  }
}

TEST_F(PolicyTest, DispersalWeightReordersCandidates) {
  // "cold": big image, touches a single page — lots of RealMem, tiny hot
  // set. "hot": small image, cycles its whole footprint — little RealMem,
  // everything resident.
  auto cold = MakeJob("cold", Sec(30.0), 64, 1);
  auto hot = MakeJob("hot", Sec(30.0), 8);
  bed.manager(0)->RegisterLocal(cold.get());
  bed.manager(0)->RegisterLocal(hot.get());
  cold->Start();
  hot->Start();
  bed.sim().RunUntil(Sec(20.0));  // let residency build up

  const ByteCount cold_resident =
      bed.host(0)->memory->ResidentCount(cold->space()->id()) * kPageSize;
  const ByteCount hot_resident =
      bed.host(0)->memory->ResidentCount(hot->space()->id()) * kPageSize;
  ASSERT_GT(hot_resident, cold_resident);

  // Ignoring residency, the small-image job is the cheaper move; once
  // resident frames dominate the metric, the cold job is.
  EXPECT_EQ(LoadBalancerPolicy::PickCandidate(*bed.manager(0), AnchorRank(0.0)), hot.get());
  const double heavy = static_cast<double>(cold->space()->RealBytes()) /
                       static_cast<double>(hot_resident - cold_resident) * 2.0;
  EXPECT_EQ(LoadBalancerPolicy::PickCandidate(*bed.manager(0), AnchorRank(heavy)), cold.get());
}

TEST_F(PolicyTest, ConfigurationSweepConverges) {
  // The knobs compose: every (threshold, hysteresis, weight) cell balances
  // the same overloaded host and drains all work.
  for (int threshold : {2, 3}) {
    for (int hysteresis : {0, 1}) {
      for (double weight : {0.0, 4.0}) {
        Testbed local_bed(MakeConfig());
        std::vector<std::unique_ptr<Process>> jobs;
        for (int i = 0; i < 4; ++i) {
          auto space = std::make_unique<AddressSpace>(SpaceId(local_bed.sim().AllocateId()),
                                                      local_bed.host(0)->id);
          Segment* image = local_bed.segments().CreateReal(16 * kPageSize, "img");
          space->MapReal(0, 16 * kPageSize, image, 0, false);
          auto proc = std::make_unique<Process>(ProcId(local_bed.sim().AllocateId()),
                                                "job-" + std::to_string(i),
                                                local_bed.host(0), std::move(space), 1);
          TraceBuilder trace;
          for (int s = 0; s < 20; ++s) {
            trace.Compute(Sec(1.0));
            trace.Read(PageBase(static_cast<PageIndex>(s) % 16));
          }
          trace.Terminate();
          proc->SetTrace(trace.Build(), 0);
          local_bed.manager(0)->RegisterLocal(proc.get());
          proc->Start();
          jobs.push_back(std::move(proc));
        }

        PolicyConfig config;
        config.sample_period = Sec(2.0);
        config.imbalance_threshold = threshold;
        config.hysteresis = hysteresis;
        config.dispersal_weight = weight;
        LoadBalancerPolicy policy(&local_bed.sim(), config);
        for (int h = 0; h < local_bed.host_count(); ++h) {
          policy.AddHost(local_bed.host(h), local_bed.manager(h));
        }
        policy.Start();
        local_bed.sim().Run();

        EXPECT_GE(policy.migrations_triggered(), 1u)
            << "threshold=" << threshold << " hysteresis=" << hysteresis
            << " weight=" << weight;
        for (int runnable : policy.SampleLoads()) {
          EXPECT_EQ(runnable, 0)
              << "threshold=" << threshold << " hysteresis=" << hysteresis
              << " weight=" << weight;
        }
      }
    }
  }
}

TEST_F(PolicyTest, FasterCpuWinsDestinationTieAtEqualLoad) {
  // Hosts 1 and 2 are both idle; host 2 advertises a 4x CPU. The calibrated
  // destination pick must break the runnable tie towards the faster
  // machine (the identity pick is first-index and would choose host 1).
  HostCalibration fast;
  fast.cpu_multiplier = 4.0;
  Testbed fast_bed(CalibratedConfig({kIdentity, kIdentity, fast}));
  std::vector<std::unique_ptr<Process>> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(MakeJobOn(fast_bed, "job-" + std::to_string(i), Sec(30.0), 8));
    fast_bed.manager(0)->RegisterLocal(jobs.back().get());
    jobs.back()->Start();
  }

  PolicyConfig config;
  config.sample_period = Sec(3.0);
  config.imbalance_threshold = 3;  // exactly one migration, then balanced
  LoadBalancerPolicy policy = MakePolicyOn(fast_bed, config);
  policy.Start();
  fast_bed.sim().Run();

  EXPECT_EQ(policy.migrations_triggered(), 1u);
  EXPECT_EQ(fast_bed.manager(1)->adopted().size(), 0u);
  ASSERT_EQ(fast_bed.manager(2)->adopted().size(), 1u);
  EXPECT_TRUE(fast_bed.manager(2)->adopted().at(0)->done());
}

TEST_F(PolicyTest, IdentityCalibrationsKeepTheHomogeneousDestinationPick) {
  // Same setup with identity calibrations everywhere: the historical
  // first-index tie-break must be reproduced exactly (host 1 wins).
  Testbed identity_bed(CalibratedConfig({kIdentity, kIdentity, kIdentity}));
  std::vector<std::unique_ptr<Process>> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(MakeJobOn(identity_bed, "job-" + std::to_string(i), Sec(30.0), 8));
    identity_bed.manager(0)->RegisterLocal(jobs.back().get());
    jobs.back()->Start();
  }

  PolicyConfig config;
  config.sample_period = Sec(3.0);
  config.imbalance_threshold = 3;
  LoadBalancerPolicy policy = MakePolicyOn(identity_bed, config);
  policy.Start();
  identity_bed.sim().Run();

  EXPECT_EQ(policy.migrations_triggered(), 1u);
  EXPECT_EQ(identity_bed.manager(1)->adopted().size(), 1u);
  EXPECT_EQ(identity_bed.manager(2)->adopted().size(), 0u);
}

TEST_F(PolicyTest, DisklessSourceNeverAnchorsBackingDegradesToPureCopy) {
  // An owed-page strategy off a diskless source would leave
  // copy-on-reference debt anchored where no spindle can serve it; the
  // policy must ship everything physically instead and count the
  // degradation.
  HostCalibration diskless;
  diskless.diskless = true;
  Testbed diskless_bed(CalibratedConfig({diskless, kIdentity, kIdentity}));
  std::vector<std::unique_ptr<Process>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(MakeJobOn(diskless_bed, "job-" + std::to_string(i), Sec(30.0), 8));
    diskless_bed.manager(0)->RegisterLocal(jobs.back().get());
    jobs.back()->Start();
  }

  PolicyConfig config;
  config.sample_period = Sec(3.0);
  config.strategy = TransferStrategy::kPureIou;
  LoadBalancerPolicy policy = MakePolicyOn(diskless_bed, config);
  policy.Start();
  diskless_bed.sim().Run();

  ASSERT_GE(policy.migrations_triggered(), 1u);
  // Every migration in this run leaves the diskless host, so every one
  // must have been degraded.
  EXPECT_EQ(policy.diskless_copy_forced(), policy.migrations_triggered());
  std::size_t landed = 0;
  for (int host = 1; host <= 2; ++host) {
    for (const auto& adopted : diskless_bed.manager(host)->adopted()) {
      EXPECT_TRUE(adopted->done()) << adopted->name();
      ++landed;
    }
  }
  EXPECT_GE(landed, 1u);
}

TEST_F(PolicyTest, CheckpointStoreLiftsDisklessDegradation) {
  // Same diskless-source pressure, but a durable checkpoint store is
  // configured (docs/INTERNALS.md §16): owed pages survive the source via
  // the store's image, so the policy keeps the requested owed-page
  // strategy instead of forcing pure-copy.
  HostCalibration diskless;
  diskless.diskless = true;
  TestbedConfig bed_config = CalibratedConfig({diskless, kIdentity, kIdentity});
  bed_config.checkpoint_store = true;
  bed_config.checkpoint_host = 3;  // anchored away from the diskless source
  Testbed store_bed(bed_config);
  std::vector<std::unique_ptr<Process>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(MakeJobOn(store_bed, "job-" + std::to_string(i), Sec(30.0), 8));
    store_bed.manager(0)->RegisterLocal(jobs.back().get());
    jobs.back()->Start();
  }

  PolicyConfig config;
  config.sample_period = Sec(3.0);
  config.strategy = TransferStrategy::kPureIou;
  LoadBalancerPolicy policy = MakePolicyOn(store_bed, config);
  policy.Start();
  store_bed.sim().Run();

  ASSERT_GE(policy.migrations_triggered(), 1u);
  EXPECT_EQ(policy.diskless_copy_forced(), 0u);
  // The owed-page migrations really were checkpointed before leaving.
  EXPECT_GE(store_bed.manager(0)->checkpoints_sent(), 1u);
  EXPECT_GE(store_bed.checkpoint_store()->checkpoints_stored(), 1u);
  std::size_t landed = 0;
  for (int host = 1; host <= 2; ++host) {
    for (const auto& adopted : store_bed.manager(host)->adopted()) {
      EXPECT_TRUE(adopted->done()) << adopted->name();
      ++landed;
    }
  }
  EXPECT_GE(landed, 1u);
}

TEST_F(PolicyTest, PolicyStopsWhenWorkDrains) {
  auto a = MakeJob("a", Sec(5.0), 8);
  bed.manager(0)->RegisterLocal(a.get());
  a->Start();
  LoadBalancerPolicy policy = MakePolicy();
  policy.Start();
  bed.sim().Run();  // must terminate: the policy stops rescheduling itself
  EXPECT_TRUE(a->done());
}

}  // namespace
}  // namespace accent
