#include "src/experiments/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/host/costs.h"
#include "src/migration/cost_model.h"
#include "src/net/network.h"
#include "src/netmsg/netmsgserver.h"
#include "src/sim/simulator.h"

namespace accent {
namespace {

// One fleet-granularity process: a CPU demand plus the footprint the
// migration cost formulas consume.
struct ClusterProc {
  std::uint64_t pid = 0;
  SimTime arrive{0};
  SimDuration demand{0};
  SimDuration consumed{0};
  SimDuration slice_len{0};  // length of the currently pending slice
  MigrationCostModel::Footprint fp;
  // Copy-on-reference debt. `backing` is the host index serving the owed
  // pages; re-migration collapses onto the original backer (the chain
  // semantics of the mechanistic testbed) so one backer always suffices.
  std::int64_t owed_pages = 0;
  int backing = -1;
  bool pull_outstanding = false;
  bool done = false;
  // Content-cache fleet model. binary_class identifies the program image
  // this process runs (drawn once at spawn); shared_owed is the portion of
  // the current debt that is image-shared content, dedup_remaining the part
  // of it the destination's cache already held when the process landed —
  // those pages ride confirm acks instead of payload.
  int binary_class = -1;
  std::int64_t shared_owed = 0;
  std::int64_t dedup_remaining = 0;
  // Bumped when the process freezes for a migration; a pending slice
  // event whose epoch no longer matches is stale and must not fire.
  std::uint64_t epoch = 0;
};

struct ActiveEntry {
  ClusterProc* proc = nullptr;
  std::uint64_t epoch = 0;
};

struct Host {
  int index = 0;
  HostId id;
  Rng rng{0};
  std::deque<ClusterProc> arena;  // every proc born here; stable addresses
  // Resident, unfrozen processes keyed by pid. std::map so victim scans
  // iterate in a platform-independent order.
  std::map<std::uint64_t, ActiveEntry> active;
  int runnable = 0;
  std::uint64_t next_local_pid = 0;

  // Census + data-plane counters (merged in index order after the run).
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  std::uint64_t outbound_started = 0;
  std::uint64_t inbound_landed = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t directives_unfilled = 0;
  std::uint64_t pull_batches = 0;
  std::uint64_t pages_pulled = 0;
  // Incremented when this host is the migration source.
  std::uint64_t diskless_copy_forced = 0;
  std::uint64_t diskless_backing_anchors = 0;
  // Per-host content cache, fleet granularity: page counts per binary
  // class under a class-LRU (front = most recent). Inserts and dedup
  // lookups both run on destination-side events.
  std::map<int, std::int64_t> cache_pages_by_class;
  std::list<int> cache_recency;
  std::int64_t cache_total = 0;
  std::uint64_t pages_deduped = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  std::vector<SimDuration> queueing;   // per completion
  std::vector<SimDuration> downtimes;  // per landed migration
};

// Balancer state, hosted on host 0. Every mutation happens inside an event
// at the coordinator (load-report deliveries, sample ticks, completion
// notices).
struct Coordinator {
  ImbalanceGovernor governor{1, 0};
  std::vector<int> last_runnable;  // freshest report per host
  std::vector<bool> busy;          // host currently tasked with a migration
  std::uint64_t samples = 0;
  std::uint64_t completions_seen = 0;

  // Steady-state detection over total-runnable window means.
  std::vector<double> window_means;
  bool steady = false;
  SimTime steady_at{0};
  std::uint64_t completions_at_steady = 0;

  bool hung = false;
};

struct Trial {
  const ClusterConfig& config;
  const CostTable& costs;
  Simulator& sim;
  Network& net;
  std::vector<std::unique_ptr<Host>>& hosts;
  Coordinator& coord;
  std::uint64_t event_budget = 0;
  // Per-host calibrations, identity-filled when the config carried none;
  // `calibrated` gates every heterogeneity-aware branch so the homogeneous
  // row keeps the legacy arithmetic expression for expression.
  std::vector<HostCalibration> cals;
  bool calibrated = false;

  Host& coord_host() const { return *hosts[0]; }
  const HostCalibration& CalOf(int index) const {
    return cals[static_cast<std::size_t>(index)];
  }

  // ---- processor-sharing slices -----------------------------------------

  void ScheduleSlice(Host& host, ClusterProc* p) {
    const SimDuration remaining = p->demand - p->consumed;
    p->slice_len = std::min(config.quantum, remaining);
    // PS approximation: a slice of CPU `slice_len` finishes after
    // slice_len x (runnable at schedule time) of wall-clock. Later load
    // changes do not reshuffle the pending event; the stretch re-evaluates
    // every quantum, which is plenty at fleet granularity.
    // A calibrated CPU clears the same demanded work in work/multiplier of
    // wall-clock (ScaleCpu is the identity at multiplier 1.0).
    const SimDuration stretch = ScaleCpu(p->slice_len * std::max(1, host.runnable),
                                         CalOf(host.index).cpu_multiplier);
    Host* h = &host;
    ClusterProc* proc = p;
    const std::uint64_t epoch = p->epoch;
    sim.ScheduleAfter(stretch, [this, h, proc, epoch]() { OnSlice(*h, proc, epoch); });
  }

  void OnSlice(Host& host, ClusterProc* p, std::uint64_t epoch) {
    auto it = host.active.find(p->pid);
    if (it == host.active.end() || it->second.epoch != epoch) {
      return;  // frozen or completed since this slice was scheduled
    }
    p->consumed += p->slice_len;
    if (p->consumed >= p->demand) {
      host.active.erase(it);
      --host.runnable;
      ++host.completed;
      p->done = true;
      const SimDuration sojourn = sim.Now() - p->arrive;
      host.queueing.push_back(sojourn > p->demand ? sojourn - p->demand
                                                  : SimDuration{0});
      return;
    }
    MaybePull(host, p);
    ScheduleSlice(host, p);
  }

  // ---- content cache (fleet model) ---------------------------------------

  // How many image pages of `binary_class` the destination already caches;
  // a hit touches the class to the LRU front.
  std::int64_t CacheHeld(Host& host, int binary_class) {
    auto it = host.cache_pages_by_class.find(binary_class);
    if (it == host.cache_pages_by_class.end() || it->second <= 0) {
      return 0;
    }
    host.cache_recency.remove(binary_class);
    host.cache_recency.push_front(binary_class);
    return it->second;
  }

  // Inserts freshly pulled image pages, partially evicting the coldest
  // classes once the capacity overflows.
  void CacheInsert(Host& host, int binary_class, std::int64_t pages) {
    if (pages <= 0 || binary_class < 0) {
      return;
    }
    auto [it, fresh] = host.cache_pages_by_class.try_emplace(binary_class, 0);
    if (!fresh) {
      host.cache_recency.remove(binary_class);
    }
    it->second += pages;
    host.cache_total += pages;
    host.cache_recency.push_front(binary_class);
    host.cache_insertions += static_cast<std::uint64_t>(pages);
    while (host.cache_total > config.content_cache_pages &&
           !host.cache_recency.empty()) {
      const int victim = host.cache_recency.back();
      auto vit = host.cache_pages_by_class.find(victim);
      ACCENT_CHECK(vit != host.cache_pages_by_class.end());
      const std::int64_t take =
          std::min(vit->second, host.cache_total - config.content_cache_pages);
      vit->second -= take;
      host.cache_total -= take;
      host.cache_evictions += static_cast<std::uint64_t>(take);
      if (vit->second <= 0) {
        host.cache_pages_by_class.erase(vit);
        host.cache_recency.pop_back();
      }
    }
  }

  // ---- copy-on-reference page pulls --------------------------------------

  void MaybePull(Host& host, ClusterProc* p) {
    if (p->owed_pages <= 0 || p->pull_outstanding || p->backing < 0) {
      return;
    }
    if (p->backing == host.index) {
      // Re-migrated back onto its own backer: the debt is local again.
      p->owed_pages = 0;
      p->backing = -1;
      p->shared_owed = 0;
      p->dedup_remaining = 0;
      return;
    }
    const std::int64_t batch = std::min(config.pull_batch_pages, p->owed_pages);
    // The cached slice of this batch rides a hash-probe request (hashes for
    // every page in the batch) and returns as a confirm ack, not payload.
    const std::int64_t confirmed =
        config.content_cache ? std::min(batch, p->dedup_remaining) : 0;
    p->pull_outstanding = true;
    Host* dest = &host;
    Host* backer = hosts[static_cast<std::size_t>(p->backing)].get();
    ClusterProc* proc = p;
    const ByteCount req_bytes =
        confirmed > 0 ? MigrationCostModel::HashProbeRequestBytes(costs, batch)
                      : MigrationCostModel::PullRequestBytes(costs);
    net.Transmit(host.id, backer->id, req_bytes, TrafficKind::kFaultData,
                 [this, dest, backer, proc, batch, confirmed, req_bytes]() {
                   ServePull(*backer, *dest, proc, batch, confirmed, req_bytes);
                 });
  }

  // Runs at the backer: charge request handling + backer service,
  // then ship the batch back. Confirmed pages shrink the reply to an ack —
  // the origin offload the content cache buys.
  void ServePull(Host& backer, Host& dest, ClusterProc* p, std::int64_t batch,
                 std::int64_t confirmed, ByteCount req_bytes) {
    const std::int64_t payload = batch - confirmed;
    const ByteCount reply_bytes =
        payload > 0 ? MigrationCostModel::PullReplyBytes(costs, payload)
                    : MigrationCostModel::HashConfirmBytes(costs);
    SimDuration serve_work =
        NetMsgDeliveryCost(costs, NetMsgFragmentCount(costs, req_bytes), req_bytes) +
        costs.backer_service;
    if (confirmed > 0) {
      serve_work += costs.cache_lookup_cpu;  // hash comparison at the origin
    }
    const SimDuration serve = ScaleCpu(serve_work, CalOf(backer.index).cpu_multiplier);
    Host* d = &dest;
    Host* b = &backer;
    sim.ScheduleAfter(serve, [this, b, d, p, batch, confirmed, reply_bytes]() {
      net.Transmit(b->id, d->id, reply_bytes, TrafficKind::kFaultData,
                   [this, d, p, batch, confirmed, reply_bytes]() {
                     const SimDuration handle = ScaleCpu(
                         NetMsgDeliveryCost(costs, NetMsgFragmentCount(costs, reply_bytes),
                                            reply_bytes),
                         CalOf(d->index).cpu_multiplier);
                     sim.ScheduleAfter(handle, [this, d, p, batch, confirmed]() {
                       p->pull_outstanding = false;
                       p->owed_pages -= batch;
                       ++d->pull_batches;
                       d->pages_pulled += static_cast<std::uint64_t>(batch);
                       if (config.content_cache) {
                         p->dedup_remaining -= confirmed;
                         const std::int64_t shared_in_batch =
                             std::min(batch, p->shared_owed);
                         p->shared_owed -= shared_in_batch;
                         d->pages_deduped += static_cast<std::uint64_t>(confirmed);
                         // Shared pages that had to travel as payload are now
                         // cached for the next process of this image.
                         CacheInsert(*d, p->binary_class, shared_in_batch - confirmed);
                       }
                       if (p->owed_pages <= 0) {
                         p->owed_pages = 0;
                         p->backing = -1;
                         p->shared_owed = 0;
                         p->dedup_remaining = 0;
                       }
                     });
                   });
    });
  }

  // ---- arrivals -----------------------------------------------------------

  ClusterProc* SpawnProc(Host& host) {
    ClusterProc proc;
    proc.pid = static_cast<std::uint64_t>(host.index) * 10'000'000ull +
               ++host.next_local_pid;
    proc.arrive = sim.Now();
    const double u = host.rng.NextDouble();
    proc.demand = std::max<SimDuration>(
        config.quantum,
        SimDuration(static_cast<std::int64_t>(
            -std::log(1.0 - u) * config.mean_service_sec * 1e6)));
    proc.fp.map_entries = static_cast<std::int64_t>(host.rng.NextInRange(
        static_cast<std::uint64_t>(config.min_map_entries),
        static_cast<std::uint64_t>(config.max_map_entries)));
    proc.fp.real_pages = static_cast<std::int64_t>(host.rng.NextInRange(
        static_cast<std::uint64_t>(config.min_real_pages),
        static_cast<std::uint64_t>(config.max_real_pages)));
    // Resident working set: 25% .. 75% of RealMem.
    proc.fp.resident_pages = static_cast<std::int64_t>(host.rng.NextInRange(
        static_cast<std::uint64_t>(proc.fp.real_pages / 4),
        static_cast<std::uint64_t>(proc.fp.real_pages * 3 / 4)));
    if (config.content_cache) {
      // Which program image this process runs. The extra draw happens only
      // with the cache on, so cache-off streams stay byte-identical.
      proc.binary_class = static_cast<int>(host.rng.NextInRange(
          0, static_cast<std::uint64_t>(config.binary_classes - 1)));
    }
    host.arena.push_back(proc);
    ClusterProc* p = &host.arena.back();
    host.active[p->pid] = ActiveEntry{p, p->epoch};
    ++host.runnable;
    ++host.arrived;
    return p;
  }

  void OnArrival(Host& host) {
    ClusterProc* p = SpawnProc(host);
    ScheduleSlice(host, p);
  }

  // ---- load reports + balancing ------------------------------------------

  void ApplyReport(int host_index, int runnable) {
    coord.last_runnable[static_cast<std::size_t>(host_index)] = runnable;
  }

  void OnReportTick(Host& host) {
    const int runnable = host.runnable;
    if (host.index == 0) {
      ApplyReport(0, runnable);
      return;
    }
    const int index = host.index;
    net.Transmit(host.id, coord_host().id, 32, TrafficKind::kControl,
                 [this, index, runnable]() { ApplyReport(index, runnable); });
  }

  void OnSampleTick() {
    ++coord.samples;
    if (coord.hung) {
      return;
    }
    if (event_budget != 0 && sim.events_executed() > event_budget) {
      coord.hung = true;
      sim.Stop();
      return;
    }
    const auto [min_it, max_it] =
        std::minmax_element(coord.last_runnable.begin(), coord.last_runnable.end());
    if (!coord.governor.Observe(*max_it - *min_it)) {
      return;
    }
    // Pick the busiest source and idlest target not already tasked; first
    // index wins ties so the choice is canonical.
    int src = -1;
    int dst = -1;
    for (std::size_t i = 0; i < coord.last_runnable.size(); ++i) {
      if (coord.busy[i]) {
        continue;
      }
      if (src < 0 || coord.last_runnable[i] > coord.last_runnable[static_cast<std::size_t>(src)]) {
        src = static_cast<int>(i);
      }
      // First index wins runnable ties — except that on a calibrated row a
      // strictly faster CPU takes the destination slot at equal load
      // (identity multipliers compare equal, so the homogeneous choice is
      // untouched).
      if (dst < 0 || coord.last_runnable[i] < coord.last_runnable[static_cast<std::size_t>(dst)] ||
          (coord.last_runnable[i] == coord.last_runnable[static_cast<std::size_t>(dst)] &&
           CalOf(static_cast<int>(i)).cpu_multiplier > CalOf(dst).cpu_multiplier)) {
        dst = static_cast<int>(i);
      }
    }
    if (src < 0 || dst < 0 || src == dst ||
        coord.last_runnable[static_cast<std::size_t>(src)] -
                coord.last_runnable[static_cast<std::size_t>(dst)] <
            coord.governor.threshold()) {
      return;  // pressure sits on already-tasked hosts; keep the streak
    }
    coord.busy[static_cast<std::size_t>(src)] = true;
    coord.busy[static_cast<std::size_t>(dst)] = true;
    coord.governor.OnMigrationFired();
    Host* source = hosts[static_cast<std::size_t>(src)].get();
    Host* target = hosts[static_cast<std::size_t>(dst)].get();
    if (src == 0) {
      OnDirective(*source, *target);
      return;
    }
    net.Transmit(coord_host().id, source->id, 48, TrafficKind::kControl,
                 [this, source, target]() { OnDirective(*source, *target); });
  }

  void NotifyMigrationDone(int src_index, int dst_index, bool migrated,
                           Host& reporter) {
    auto apply = [this, src_index, dst_index, migrated]() {
      coord.busy[static_cast<std::size_t>(src_index)] = false;
      coord.busy[static_cast<std::size_t>(dst_index)] = false;
      if (migrated) {
        ++coord.completions_seen;
      }
    };
    if (reporter.index == 0) {
      apply();
      return;
    }
    net.Transmit(reporter.id, coord_host().id, 32, TrafficKind::kControl,
                 std::move(apply));
  }

  // ---- migration data plane ----------------------------------------------

  // The strategy one migration out of `source` actually uses: the policy's,
  // unless the source is diskless and the policy would leave owed pages
  // anchored there — a store it cannot serve — in which case the transfer
  // degrades to pure-copy. Pre-copy, like pure-copy, ships every page
  // physically and owes nothing, so a diskless source runs it unchanged.
  TransferStrategy EffectiveStrategy(const Host& source) const {
    const TransferStrategy strategy = config.policy.strategy;
    if (CalOf(source.index).diskless && (strategy == TransferStrategy::kPureIou ||
                                         strategy == TransferStrategy::kResidentSet)) {
      return TransferStrategy::kPureCopy;
    }
    return strategy;
  }

  // Runs at the source: pick the cheapest victim and start the
  // transfer. Homogeneous rows rank by the dispersal-aware anchor metric
  // (bytes anchored locally); calibrated rows rank by the full
  // MigrationCostModel::RelocationCost — excise at the source's speed, wire
  // at the source's link, insert at the *destination's* speed — so a slow
  // destination inflates every candidate's estimate.
  void OnDirective(Host& source, Host& target) {
    const TransferStrategy strategy = EffectiveStrategy(source);
    ClusterProc* victim = nullptr;
    ByteCount best_anchor = 0;
    SimDuration best_cost{0};
    for (const auto& [pid, entry] : source.active) {
      ClusterProc* p = entry.proc;
      if (p->pull_outstanding) {
        continue;  // a pull reply is already in flight to this host
      }
      if (calibrated) {
        const SimDuration cost = MigrationCostModel::RelocationCost(
            costs, strategy, p->fp, CalOf(source.index), CalOf(target.index));
        if (victim == nullptr || cost < best_cost) {
          victim = p;
          best_cost = cost;
        }
        continue;
      }
      const ByteCount anchor =
          AnchorBytes(static_cast<ByteCount>(p->fp.real_pages) * kPageSize,
                      static_cast<ByteCount>(p->fp.resident_pages) * kPageSize,
                      config.policy.dispersal_weight);
      if (victim == nullptr || anchor < best_anchor) {
        victim = p;
        best_anchor = anchor;
      }
    }
    if (victim == nullptr) {
      ++source.directives_unfilled;
      NotifyMigrationDone(source.index, target.index, /*migrated=*/false, source);
      return;
    }
    StartMigration(source, target, victim);
  }

  void StartMigration(Host& source, Host& target, ClusterProc* p) {
    const SimTime freeze_at = sim.Now();
    source.active.erase(p->pid);
    --source.runnable;
    ++p->epoch;
    ++source.outbound_started;

    const TransferStrategy strategy = EffectiveStrategy(source);
    if (strategy != config.policy.strategy) {
      ++source.diskless_copy_forced;
    }
    const ByteCount core_bytes =
        MigrationCostModel::CorePayloadBytes(costs, p->fp.map_entries);
    const ByteCount rimas_bytes =
        MigrationCostModel::RimasPayloadBytes(costs, strategy, p->fp);
    const std::int64_t shipped = MigrationCostModel::ShippedPages(strategy, p->fp);
    // Chain collapse: debt left from an earlier hop stays owed to the
    // original backer; a fresh hop owes the new source. One backer always
    // serves, and the debt never exceeds the address space.
    const std::int64_t new_owed = MigrationCostModel::OwedPages(strategy, p->fp);
    const int backing = p->owed_pages > 0 ? p->backing : source.index;
    const std::int64_t owed = std::max(p->owed_pages, new_owed);
    if (owed > 0 && backing >= 0 && CalOf(backing).diskless) {
      // EffectiveStrategy prevents fresh anchors and chain collapse keeps
      // old ones, so this never fires; the counter is the run's proof.
      ++source.diskless_backing_anchors;
    }

    // Excise + message handling are source CPU work; both scale with the
    // source's speed (exactly themselves at multiplier 1.0).
    const double src_cpu = CalOf(source.index).cpu_multiplier;
    const SimDuration excise = ScaleCpu(
        MigrationCostModel::ExciseCost(costs, p->fp) + costs.migration_control, src_cpu);
    const SimDuration send_handle = ScaleCpu(
        NetMsgDeliveryCost(costs, NetMsgFragmentCount(costs, core_bytes), core_bytes) +
            NetMsgDeliveryCost(costs, NetMsgFragmentCount(costs, rimas_bytes), rimas_bytes),
        src_cpu);

    Host* src = &source;
    Host* dst = &target;
    sim.ScheduleAfter(excise + send_handle, [this, src, dst, p, core_bytes,
                                             rimas_bytes, shipped, owed, backing,
                                             freeze_at]() {
      // Core then RIMAS; the per-source egress port serialises them, so the
      // RIMAS arrival (which triggers insertion) is always the later one.
      net.Transmit(src->id, dst->id, core_bytes, TrafficKind::kCoreContext, []() {});
      net.Transmit(src->id, dst->id, rimas_bytes, TrafficKind::kBulkData,
                   [this, src, dst, p, core_bytes, rimas_bytes, shipped, owed,
                    backing, freeze_at]() {
                     FinishMigration(*src, *dst, p, core_bytes, rimas_bytes,
                                     shipped, owed, backing, freeze_at);
                   });
    });
  }

  // Runs at the destination once the RIMAS has fully arrived.
  void FinishMigration(Host& source, Host& target, ClusterProc* p,
                       ByteCount core_bytes, ByteCount rimas_bytes,
                       std::int64_t shipped, std::int64_t owed, int backing,
                       SimTime freeze_at) {
    const double dst_cpu = CalOf(target.index).cpu_multiplier;
    const SimDuration recv_handle = ScaleCpu(
        NetMsgDeliveryCost(costs, NetMsgFragmentCount(costs, core_bytes), core_bytes) +
            NetMsgDeliveryCost(costs, NetMsgFragmentCount(costs, rimas_bytes), rimas_bytes) +
            costs.migration_rimas_handling,
        dst_cpu);
    const SimDuration insert = ScaleCpu(
        MigrationCostModel::InsertCost(costs, p->fp.map_entries, shipped), dst_cpu);
    Host* src = &source;
    Host* dst = &target;
    sim.ScheduleAfter(recv_handle + insert, [this, src, dst, p, owed, backing,
                                             freeze_at]() {
      p->owed_pages = owed;
      p->backing = owed > 0 ? backing : -1;
      if (config.content_cache && owed > 0) {
        // shared_fraction of the debt is image content; the slice of it the
        // destination's cache already holds will ride confirm acks.
        p->shared_owed = std::min(
            owed, static_cast<std::int64_t>(
                      std::llround(static_cast<double>(owed) * config.shared_fraction)));
        p->dedup_remaining = std::min(p->shared_owed, CacheHeld(*dst, p->binary_class));
      } else {
        p->shared_owed = 0;
        p->dedup_remaining = 0;
      }
      dst->active[p->pid] = ActiveEntry{p, p->epoch};
      ++dst->runnable;
      ++dst->inbound_landed;
      ++dst->migrations_completed;
      dst->downtimes.push_back(sim.Now() - freeze_at);
      NotifyMigrationDone(src->index, dst->index, /*migrated=*/true, *dst);
      MaybePull(*dst, p);
      ScheduleSlice(*dst, p);
    });
  }

  // ---- steady-state detection --------------------------------------------

  void OnSteadyTick() {
    double total = 0.0;
    for (int runnable : coord.last_runnable) {
      total += runnable;
    }
    coord.window_means.push_back(total);
    if (coord.steady ||
        coord.window_means.size() < static_cast<std::size_t>(config.steady_windows)) {
      return;
    }
    const std::size_t n = coord.window_means.size();
    for (std::size_t i = n - static_cast<std::size_t>(config.steady_windows) + 1;
         i < n; ++i) {
      const double prev = coord.window_means[i - 1];
      const double cur = coord.window_means[i];
      if (std::abs(cur - prev) > config.steady_tolerance * std::max(1.0, prev)) {
        return;
      }
    }
    coord.steady = true;
    coord.steady_at = sim.Now();
    coord.completions_at_steady = coord.completions_seen;
  }
};

SimDuration Percentile(std::vector<SimDuration>& values, double q) {
  if (values.empty()) {
    return SimDuration{0};
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t index = static_cast<std::size_t>(pos + 0.5);
  return values[std::min(index, values.size() - 1)];
}

std::uint64_t AutoEventBudget(const ClusterConfig& config) {
  // Generous ceiling: slices (one per quantum of demanded CPU), arrivals,
  // reports, samples, pulls and migration control traffic all together stay
  // well under (expected slice count) x safety factor.
  const double procs = static_cast<double>(config.host_count) *
                       (static_cast<double>(config.initial_processes_per_host) +
                        config.arrivals_per_host_per_sec * ToSeconds(config.duration));
  const double slices = static_cast<double>(config.host_count) *
                        ToSeconds(config.duration) / ToSeconds(config.quantum);
  const double ticks = static_cast<double>(config.host_count) *
                       ToSeconds(config.duration) / ToSeconds(config.report_period);
  const double budget = 64.0 * (procs + slices + ticks) + 1e6;
  return static_cast<std::uint64_t>(budget);
}

}  // namespace

ClusterResult RunClusterTrial(const ClusterConfig& config) {
  ACCENT_EXPECTS(config.host_count >= 2);
  ACCENT_EXPECTS(config.duration > SimDuration::zero());
  ACCENT_EXPECTS(config.quantum > SimDuration::zero());
  ACCENT_EXPECTS(config.pull_batch_pages >= 1);
  if (config.content_cache) {
    ACCENT_EXPECTS(config.content_cache_pages >= 1);
    ACCENT_EXPECTS(config.binary_classes >= 1);
    ACCENT_EXPECTS(config.shared_fraction >= 0.0 && config.shared_fraction <= 1.0);
  }
  ACCENT_EXPECTS(config.calibrations.empty() ||
                 config.calibrations.size() == static_cast<std::size_t>(config.host_count))
      << " calibrations must cover every host";
  for (const HostCalibration& cal : config.calibrations) {
    cal.Validate();
  }

  ClusterResult result;
  result.config = config;

  const CostTable& costs = PerqCosts();
  Simulator sim;
  Network net(&sim, &costs, /*recorder=*/nullptr);
  net.ConfigureSwitched(config.host_count);
  if (!config.calibrations.empty()) {
    net.SetHostCalibrations(config.calibrations);
  }

  std::vector<std::unique_ptr<Host>> hosts;
  hosts.reserve(static_cast<std::size_t>(config.host_count));
  Rng root(config.seed);
  for (int i = 0; i < config.host_count; ++i) {
    auto host = std::make_unique<Host>();
    host->index = i;
    host->id = HostId(static_cast<std::uint64_t>(i + 1));
    host->rng = root.Fork(static_cast<std::uint64_t>(i + 1));
    hosts.push_back(std::move(host));
  }

  Coordinator coord;
  coord.governor = ImbalanceGovernor(config.policy.imbalance_threshold,
                                     config.policy.hysteresis);
  coord.last_runnable.assign(static_cast<std::size_t>(config.host_count), 0);
  coord.busy.assign(static_cast<std::size_t>(config.host_count), false);

  Trial trial{config, costs, sim, net, hosts, coord};
  trial.event_budget = config.max_events != 0 ? config.max_events : AutoEventBudget(config);
  trial.cals.assign(static_cast<std::size_t>(config.host_count), HostCalibration{});
  for (std::size_t i = 0; i < config.calibrations.size(); ++i) {
    trial.cals[i] = config.calibrations[i];
  }
  trial.calibrated = AnyCalibrated(config.calibrations);

  // --- setup --------------------------------------------------------------
  for (auto& host_ptr : hosts) {
    Host& host = *host_ptr;
    // Poisson arrival times for the whole run, pre-scheduled.
    std::vector<SimTime> arrivals;
    SimTime t{0};
    while (true) {
      const double u = host.rng.NextDouble();
      t += SimDuration(static_cast<std::int64_t>(
          -std::log(1.0 - u) / config.arrivals_per_host_per_sec * 1e6));
      if (t >= config.duration) {
        break;
      }
      arrivals.push_back(t);
    }
    Host* h = &host;
    for (SimTime when : arrivals) {
      sim.ScheduleAt(when, [&trial, h]() { trial.OnArrival(*h); });
    }
    for (SimTime when = config.report_period; when < config.duration;
         when += config.report_period) {
      sim.ScheduleAt(when, [&trial, h]() { trial.OnReportTick(*h); });
    }
    for (int i = 0; i < config.initial_processes_per_host; ++i) {
      trial.SpawnProc(host);
    }
  }
  // Initial slices are scheduled only once every initial process is
  // resident, so the first PS stretch sees the true initial load.
  for (auto& host_ptr : hosts) {
    Host& host = *host_ptr;
    for (auto& [pid, entry] : host.active) {
      trial.ScheduleSlice(host, entry.proc);
    }
  }
  for (SimTime when = config.policy.sample_period; when < config.duration;
       when += config.policy.sample_period) {
    sim.ScheduleAt(when, [&trial]() { trial.OnSampleTick(); });
  }
  for (SimTime when = config.steady_window; when < config.duration;
       when += config.steady_window) {
    sim.ScheduleAt(when, [&trial]() { trial.OnSteadyTick(); });
  }

  // --- run -----------------------------------------------------------------
  sim.RunUntil(config.duration);
  result.hung = coord.hung;
  if (result.hung) {
    ACCENT_LOG(kError) << "cluster: watchdog tripped after " << sim.events_executed()
                      << " events (budget " << trial.event_budget << ")";
    for (SimTime when : sim.PendingEventTimes(8)) {
      ACCENT_LOG(kError) << "cluster:   next pending event at " << when.count() << "us";
    }
  }

  // --- aggregate (hosts in index order: canonical) -------------------------
  std::vector<SimDuration> queueing;
  std::vector<SimDuration> downtimes;
  for (const auto& host_ptr : hosts) {
    const Host& host = *host_ptr;
    result.arrived += host.arrived;
    result.completed += host.completed;
    result.resident_end += host.active.size();
    result.outbound_started += host.outbound_started;
    result.inbound_landed += host.inbound_landed;
    result.migrations_started += host.outbound_started;
    result.migrations_completed += host.migrations_completed;
    result.directives_unfilled += host.directives_unfilled;
    result.pull_batches += host.pull_batches;
    result.pages_pulled += host.pages_pulled;
    result.pages_deduped += host.pages_deduped;
    result.cache_insertions += host.cache_insertions;
    result.cache_evictions += host.cache_evictions;
    result.diskless_copy_forced += host.diskless_copy_forced;
    result.diskless_backing_anchors += host.diskless_backing_anchors;
    queueing.insert(queueing.end(), host.queueing.begin(), host.queueing.end());
    downtimes.insert(downtimes.end(), host.downtimes.begin(), host.downtimes.end());
  }
  result.census_ok =
      result.arrived == result.completed + result.resident_end +
                            (result.outbound_started - result.inbound_landed);
  result.queueing_p50 = Percentile(queueing, 0.50);
  result.queueing_p99 = Percentile(queueing, 0.99);
  result.downtime_p50 = Percentile(downtimes, 0.50);
  result.downtime_p99 = Percentile(downtimes, 0.99);

  result.steady_detected = coord.steady;
  // Fallback measurement window when steadiness was never declared: the
  // back half of the run.
  const SimTime steady_from =
      coord.steady ? coord.steady_at : SimTime(config.duration.count() / 2);
  result.steady_at = steady_from;
  const std::uint64_t completions_from =
      coord.steady ? coord.completions_at_steady
                   : coord.completions_seen - std::min(coord.completions_seen,
                                                       coord.completions_seen / 2);
  const double window_sec = ToSeconds(config.duration - steady_from);
  result.steady_migrations_per_sec =
      window_sec > 0.0
          ? static_cast<double>(coord.completions_seen - completions_from) / window_sec
          : 0.0;

  result.events_executed = sim.events_executed();
  result.transmissions = net.transmissions();
  result.wire_bytes = net.bytes_carried();
  result.samples_taken = coord.samples;
  return result;
}

Json ClusterResultToJson(const ClusterResult& result) {
  const ClusterConfig& config = result.config;
  Json policy = Json::Object{};
  policy["sample_period_us"] = Json(static_cast<std::int64_t>(config.policy.sample_period.count()));
  policy["imbalance_threshold"] = Json(config.policy.imbalance_threshold);
  policy["hysteresis"] = Json(config.policy.hysteresis);
  policy["dispersal_weight"] = Json(config.policy.dispersal_weight);
  policy["strategy"] = Json(StrategyName(config.policy.strategy));

  Json json = Json::Object{};
  json["hosts"] = Json(config.host_count);
  json["seed"] = Json(config.seed);
  json["duration_us"] = Json(static_cast<std::int64_t>(config.duration.count()));
  json["initial_processes_per_host"] = Json(config.initial_processes_per_host);
  json["arrivals_per_host_per_sec"] = Json(config.arrivals_per_host_per_sec);
  json["mean_service_sec"] = Json(config.mean_service_sec);
  json["policy"] = std::move(policy);

  json["arrived"] = Json(result.arrived);
  json["completed"] = Json(result.completed);
  json["resident_end"] = Json(result.resident_end);
  json["outbound_started"] = Json(result.outbound_started);
  json["inbound_landed"] = Json(result.inbound_landed);
  json["census_ok"] = Json(result.census_ok);

  json["migrations_started"] = Json(result.migrations_started);
  json["migrations_completed"] = Json(result.migrations_completed);
  json["directives_unfilled"] = Json(result.directives_unfilled);
  json["pull_batches"] = Json(result.pull_batches);
  json["pages_pulled"] = Json(result.pages_pulled);

  json["content_cache"] = Json(config.content_cache);
  json["binary_classes"] = Json(config.binary_classes);
  json["shared_fraction"] = Json(config.shared_fraction);
  json["pages_deduped"] = Json(result.pages_deduped);
  json["cache_insertions"] = Json(result.cache_insertions);
  json["cache_evictions"] = Json(result.cache_evictions);

  int diskless_hosts = 0;
  for (const HostCalibration& cal : config.calibrations) {
    diskless_hosts += cal.diskless ? 1 : 0;
  }
  json["calibrated"] = Json(AnyCalibrated(config.calibrations));
  json["diskless_hosts"] = Json(diskless_hosts);
  json["diskless_copy_forced"] = Json(result.diskless_copy_forced);
  json["diskless_backing_anchors"] = Json(result.diskless_backing_anchors);

  json["queueing_p50_us"] = Json(static_cast<std::int64_t>(result.queueing_p50.count()));
  json["queueing_p99_us"] = Json(static_cast<std::int64_t>(result.queueing_p99.count()));
  json["downtime_p50_us"] = Json(static_cast<std::int64_t>(result.downtime_p50.count()));
  json["downtime_p99_us"] = Json(static_cast<std::int64_t>(result.downtime_p99.count()));

  json["steady_detected"] = Json(result.steady_detected);
  json["steady_at_us"] = Json(static_cast<std::int64_t>(result.steady_at.count()));
  json["steady_migrations_per_sec"] = Json(result.steady_migrations_per_sec);

  json["events_executed"] = Json(result.events_executed);
  json["transmissions"] = Json(result.transmissions);
  json["wire_bytes"] = Json(result.wire_bytes);
  json["samples_taken"] = Json(result.samples_taken);
  json["hung"] = Json(result.hung);
  return json;
}

}  // namespace accent
