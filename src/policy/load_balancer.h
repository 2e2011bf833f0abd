// Automatic migration policy — the future work of section 6.
//
// "The creation and evaluation of automatic migration strategies ... have
// not been addressed here. Good strategies are necessary to capitalize on
// the inherent advantages of lazy transfers. Part of this activity will
// involve the development of good load metrics which specifically take
// into account the fact that a process virtual address space may be
// physically dispersed among several computational hosts."
//
// This file is the one home of every migration decision, shared by the
// fleet coordinator (src/experiments/cluster.cc) and LoadBalancerPolicy,
// which drives real MigrationManagers on a testbed. When the imbalance
// between the busiest and idlest host exceeds a threshold, a process moves
// from the former to the latter. Candidates rank by the dispersal-aware
// metric the paper asks for: the one with the least *locally anchored*
// memory (resident frames plus locally-materialised RealMem) is cheapest
// to relocate under copy-on-reference, because most of its address space
// is either elsewhere already or will follow lazily.
#ifndef SRC_POLICY_LOAD_BALANCER_H_
#define SRC_POLICY_LOAD_BALANCER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/host/calibration.h"
#include "src/migration/cost_model.h"
#include "src/migration/migration_manager.h"
#include "src/proc/host_env.h"
#include "src/sim/simulator.h"

namespace accent {

struct PolicyConfig {
  SimDuration sample_period = Sec(5.0);
  // Trigger when (busiest.runnable - idlest.runnable) >= this.
  int imbalance_threshold = 2;
  // Consecutive over-threshold samples to sit out before acting: 0 reacts
  // to the first imbalanced sample, 2 waits out imbalances shorter than
  // two periods. The streak resets whenever a sample is balanced (or a
  // migration fires), so sustained pressure is required each time.
  int hysteresis = 0;
  // Weight of resident frames in the dispersal-aware anchor metric
  // (AnchorBytes = RealMem bytes + weight x resident bytes). 0 ranks
  // candidates purely by locally-materialised memory; larger values
  // increasingly avoid relocating processes with a hot working set.
  double dispersal_weight = 1.0;
  TransferStrategy strategy = TransferStrategy::kPureIou;
};

// One balancing migration's hosts, as indices into the caller's hosts.
struct HostPair {
  std::size_t source = 0;
  std::size_t target = 0;
};

// The busiest untasked source and the idlest untasked destination among
// hosts whose runnable counts are `runnable`. A tasked host is already
// the source or destination of a migration in flight. The first index
// wins ties, except that at equal load a strictly faster CPU wins the
// destination (identity calibrations compare equal). Nothing when the two
// are one host or their spread is under `threshold`.
std::optional<HostPair> PickHostPair(const std::vector<int>& runnable,
                                     const std::vector<bool>& tasked,
                                     const std::vector<HostCalibration>& calibrations,
                                     int threshold);

// Threshold + hysteresis trigger: fires when the spread over every host
// exceeds the threshold for more than `hysteresis` consecutive samples.
// The streak re-arms when a sample is balanced or a migration fires; a
// fire-able sample whose pressure sits on tasked hosts keeps it.
class ImbalanceGovernor {
 public:
  ImbalanceGovernor(int threshold, int hysteresis)
      : threshold_(threshold), hysteresis_(hysteresis) {
    ACCENT_EXPECTS(threshold >= 1);
    ACCENT_EXPECTS(hysteresis >= 0);
  }

  // One balancing sample: weighs the spread over every host and, when the
  // trigger fires, PickHostPair among the untasked ones. A returned pair
  // counts as fired; the caller marks both hosts tasked.
  std::optional<HostPair> Decide(const std::vector<int>& runnable,
                                 const std::vector<bool>& tasked,
                                 const std::vector<HostCalibration>& calibrations);

  int streak() const { return streak_; }

 private:
  int threshold_;
  int hysteresis_;
  int streak_ = 0;
};

// The strategy a migration out of `source` actually runs: pure-copy when
// `requested` would leave owed pages anchored on a diskless source with
// no checkpoint store (docs/INTERNALS.md §16) to retarget the debt at.
// Pre-copy, like pure-copy, owes nothing and runs unchanged.
TransferStrategy EffectiveStrategy(TransferStrategy requested, const HostCalibration& source,
                                   bool checkpoint_store);

// The dispersal-aware anchor metric in bytes: locally-served RealMem plus
// the resident hot set scaled by `dispersal_weight`.
ByteCount AnchorBytes(const MigrationCostModel::Footprint& fp, double dispersal_weight);

// How one decision ranks its source's candidates: by AnchorBytes on a
// homogeneous row, by the end-to-end RelocationCost (source to target)
// once AnyCalibrated, so a slow destination inflates every estimate.
struct VictimRank {
  const CostTable& costs;
  TransferStrategy strategy;  // the effective one (EffectiveStrategy)
  double dispersal_weight;
  bool calibrated;
  const HostCalibration& source;
  const HostCalibration& target;

  // Smaller is cheaper: bytes, or microseconds when calibrated.
  std::int64_t Score(const MigrationCostModel::Footprint& fp) const;

  // The smallest-scoring candidate (the first wins ties); each caller
  // passes only its eligible ones.
  std::optional<std::size_t> Pick(
      std::span<const MigrationCostModel::Footprint> candidates) const;
};

class LoadBalancerPolicy {
 public:
  LoadBalancerPolicy(Simulator* sim, const PolicyConfig& config);

  // Registers a host (its env + manager). All hosts join before Start().
  // The policy reads the host's hardware from env->calibration and whether
  // a checkpoint store backs its migrations from the manager.
  void AddHost(HostEnv* env, MigrationManager* manager);

  // Begins periodic sampling; stops itself once every tracked process has
  // finished and no migration is in flight.
  void Start();

  // --- introspection -----------------------------------------------------
  // Runnable processes per host, in AddHost order.
  std::vector<int> SampleLoads() const;
  std::uint64_t migrations_triggered() const { return migrations_triggered_; }
  std::uint64_t samples_taken() const { return samples_; }
  // Migrations whose strategy was degraded to pure-copy because the source
  // is diskless and must not anchor backing.
  std::uint64_t diskless_copy_forced() const { return diskless_copy_forced_; }

  // The cheapest-to-move runnable process of `manager`'s host under
  // `rank`, or null when none is eligible.
  static Process* PickCandidate(const MigrationManager& manager, const VictimRank& rank);

 private:
  struct Node {
    HostEnv* env = nullptr;
    MigrationManager* manager = nullptr;
  };

  void ScheduleNextSample();
  void Sample();
  bool AnyRunnable() const;

  Simulator& sim_;
  PolicyConfig config_;
  std::vector<Node> nodes_;
  std::vector<HostCalibration> calibrations_;  // nodes_[i].env->calibration
  std::vector<bool> tasked_;  // source or destination of a migration in flight
  bool started_ = false;
  ImbalanceGovernor governor_;
  std::uint64_t migrations_triggered_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t diskless_copy_forced_ = 0;
};

}  // namespace accent

#endif  // SRC_POLICY_LOAD_BALANCER_H_
