#include "src/policy/load_balancer.h"

#include <algorithm>

#include "src/base/logging.h"

namespace accent {

std::optional<HostPair> PickHostPair(const std::vector<int>& runnable,
                                     const std::vector<bool>& tasked,
                                     const std::vector<HostCalibration>& calibrations,
                                     int threshold) {
  ACCENT_EXPECTS(tasked.size() == runnable.size() && calibrations.size() == runnable.size());
  std::optional<std::size_t> src;
  std::optional<std::size_t> dst;
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    if (tasked[i]) {
      continue;
    }
    if (!src || runnable[i] > runnable[*src]) {
      src = i;
    }
    if (!dst || runnable[i] < runnable[*dst] ||
        (runnable[i] == runnable[*dst] &&
         calibrations[i].cpu_multiplier > calibrations[*dst].cpu_multiplier)) {
      dst = i;
    }
  }
  if (!src || *src == *dst || runnable[*src] - runnable[*dst] < threshold) {
    return std::nullopt;
  }
  return HostPair{*src, *dst};
}

std::optional<HostPair> ImbalanceGovernor::Decide(
    const std::vector<int>& runnable, const std::vector<bool>& tasked,
    const std::vector<HostCalibration>& calibrations) {
  const auto [min_it, max_it] = std::minmax_element(runnable.begin(), runnable.end());
  if (*max_it - *min_it < threshold_) {
    streak_ = 0;  // pressure relieved: re-arm the hysteresis
    return std::nullopt;
  }
  if (++streak_ <= hysteresis_) {
    return std::nullopt;  // a transient imbalance still inside hysteresis
  }
  const std::optional<HostPair> pair = PickHostPair(runnable, tasked, calibrations, threshold_);
  if (pair) {
    streak_ = 0;  // each migration must re-earn its hysteresis
  }
  return pair;
}

TransferStrategy EffectiveStrategy(TransferStrategy requested, const HostCalibration& source,
                                   bool checkpoint_store) {
  if (!checkpoint_store && source.diskless &&
      (requested == TransferStrategy::kPureIou || requested == TransferStrategy::kResidentSet)) {
    return TransferStrategy::kPureCopy;
  }
  return requested;
}

ByteCount AnchorBytes(const MigrationCostModel::Footprint& fp, double dispersal_weight) {
  const auto resident_bytes = static_cast<ByteCount>(fp.resident_pages) * kPageSize;
  return static_cast<ByteCount>(fp.real_pages) * kPageSize +
         static_cast<ByteCount>(dispersal_weight * static_cast<double>(resident_bytes));
}

std::int64_t VictimRank::Score(const MigrationCostModel::Footprint& fp) const {
  if (calibrated) {
    return MigrationCostModel::RelocationCost(costs, strategy, fp, source, target).count();
  }
  return static_cast<std::int64_t>(AnchorBytes(fp, dispersal_weight));
}

std::optional<std::size_t> VictimRank::Pick(
    std::span<const MigrationCostModel::Footprint> candidates) const {
  std::optional<std::size_t> best;
  std::int64_t best_score = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::int64_t score = Score(candidates[i]);
    if (!best || score < best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

LoadBalancerPolicy::LoadBalancerPolicy(Simulator* sim, const PolicyConfig& config)
    : sim_(*sim),
      config_(config),
      governor_(config.imbalance_threshold, config.hysteresis) {
  ACCENT_EXPECTS(sim != nullptr);
  ACCENT_EXPECTS(config.sample_period > SimDuration::zero());
  ACCENT_EXPECTS(config.dispersal_weight >= 0.0);
}

void LoadBalancerPolicy::AddHost(HostEnv* env, MigrationManager* manager) {
  ACCENT_EXPECTS(env != nullptr && manager != nullptr);
  ACCENT_EXPECTS(!started_) << " hosts must join before Start()";
  nodes_.push_back(Node{env, manager});
}

void LoadBalancerPolicy::Start() {
  ACCENT_EXPECTS(nodes_.size() >= 2) << " balancing needs at least two hosts";
  started_ = true;
  for (const Node& node : nodes_) {
    calibrations_.push_back(node.env->calibration);
  }
  tasked_.assign(nodes_.size(), false);
  ScheduleNextSample();
}

void LoadBalancerPolicy::ScheduleNextSample() {
  sim_.ScheduleAfter(config_.sample_period, [this]() {
    Sample();
    if (AnyRunnable()) {
      ScheduleNextSample();  // otherwise all work drained: stop so the simulation can end
    }
  });
}

bool LoadBalancerPolicy::AnyRunnable() const {
  for (const Node& node : nodes_) {
    if (!node.manager->RunnableLocalProcesses().empty()) {
      return true;
    }
  }
  return std::find(tasked_.begin(), tasked_.end(), true) != tasked_.end();
}

std::vector<int> LoadBalancerPolicy::SampleLoads() const {
  std::vector<int> loads;
  loads.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    loads.push_back(static_cast<int>(node.manager->RunnableLocalProcesses().size()));
  }
  return loads;
}

Process* LoadBalancerPolicy::PickCandidate(const MigrationManager& manager,
                                           const VictimRank& rank) {
  const std::vector<Process*> runnable = manager.RunnableLocalProcesses();
  std::vector<MigrationCostModel::Footprint> footprints;
  footprints.reserve(runnable.size());
  for (const Process* proc : runnable) {
    footprints.push_back(FootprintOf(*proc));
  }
  const std::optional<std::size_t> best = rank.Pick(footprints);
  return best ? runnable[*best] : nullptr;
}

void LoadBalancerPolicy::Sample() {
  ++samples_;
  const std::optional<HostPair> pair = governor_.Decide(SampleLoads(), tasked_, calibrations_);
  if (!pair) {
    return;
  }
  const std::size_t src = pair->source;
  const std::size_t dst = pair->target;
  Node& source = nodes_[src];
  Node& target = nodes_[dst];
  const TransferStrategy strategy = EffectiveStrategy(
      config_.strategy, calibrations_[src], source.manager->checkpoint_store().valid());
  // The busiest host runs at least `threshold` processes: never empty.
  Process* candidate = PickCandidate(
      *source.manager,
      VictimRank{*source.env->costs, strategy, config_.dispersal_weight,
                 AnyCalibrated(calibrations_), calibrations_[src], calibrations_[dst]});
  ACCENT_CHECK(candidate != nullptr);
  if (strategy != config_.strategy) {
    ++diskless_copy_forced_;
  }
  ACCENT_LOG(kInfo) << "policy: moving " << candidate->name() << " from " << source.env->id
                    << " to " << target.env->id;
  ++migrations_triggered_;
  tasked_[src] = true;
  tasked_[dst] = true;
  source.manager->Migrate(candidate, target.manager->port(), strategy,
                          [this, src, dst](const MigrationRecord&) {
                            tasked_[src] = false;
                            tasked_[dst] = false;
                          });
}

}  // namespace accent
