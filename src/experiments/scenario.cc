#include "src/experiments/scenario.h"

#include <map>
#include <sstream>

#include "src/base/check.h"
#include "src/base/page_data.h"
#include "src/experiments/testbed.h"
#include "src/net/page_service.h"
#include "src/vm/pager.h"
#include "src/workloads/workload.h"

namespace accent {

const char* FailureOutcomeName(FailureOutcome outcome) {
  switch (outcome) {
    case FailureOutcome::kCompleted:
      return "completed";
    case FailureOutcome::kAborted:
      return "aborted";
    case FailureOutcome::kTerminalFault:
      return "terminal_fault";
    case FailureOutcome::kHung:
      return "hung";
  }
  return "unknown";
}

std::string FuzzScenario::Describe() const {
  std::ostringstream out;
  out << "seed=" << seed << " hosts=" << host_count << " workload=" << workload
      << " strategy=" << StrategyName(strategy) << " prefetch=" << prefetch << " dest="
      << dest;
  if (!(precopy == PreCopyConfig{})) {
    out << " precopy(rounds=" << precopy.max_rounds << ",stop=" << precopy.stop_threshold
        << ",slo_ms=" << precopy.target_downtime.count() / 1000 << ")";
  }
  if (live_migrate_at != SimDuration{0}) {
    out << " live@" << live_migrate_at.count() / 1000 << "ms";
  }
  if (remigrate) {
    out << " remigrate@" << remigrate_at << "->" << redest;
  }
  int calibrated = 0;
  int diskless = 0;
  for (const HostCalibration& cal : calibrations) {
    calibrated += cal.identity() ? 0 : 1;
    diskless += cal.diskless ? 1 : 0;
  }
  out << " calibrated=" << calibrated << "/" << host_count << " diskless=" << diskless;
  if (content_cache) {
    out << " cache=" << content_cache_pages;
  }
  if (checkpoint) {
    out << " ckpt";
    if (checkpoint_host != 0) {
      out << "@" << checkpoint_host;
    }
  }
  if (drop > 0.0 || duplicate > 0.0 || delay > 0.0 || reorder > 0.0) {
    out << " lossy(drop=" << drop << ",dup=" << duplicate << ",delay=" << delay
        << ",reorder=" << reorder << ")";
  }
  if (partition_transfer) {
    out << " partition";
  }
  if (crash_dest) {
    out << " crash=dest";
  }
  if (crash_source) {
    out << " crash=source";
  }
  return out.str();
}

MechRun RunMech(const FuzzScenario& sc, const FaultPlan& plan, std::uint64_t fault_seed) {
  TestbedConfig config;
  config.host_count = sc.host_count;
  config.calibrations = sc.calibrations;
  config.fault_plan = plan;
  config.fault_seed = fault_seed;
  config.content_cache = sc.content_cache;
  config.content_cache_pages = sc.content_cache_pages;
  config.checkpoint_store = sc.checkpoint;
  config.checkpoint_host = sc.checkpoint_host;
  Testbed bed(config);
  bed.SetPrefetch(sc.prefetch);
  for (int i = 0; i < sc.host_count; ++i) {
    bed.manager(i)->set_precopy_config(sc.precopy);
  }

  MechRun run;
  WorkloadInstance instance = BuildWorkload(WorkloadByName(sc.workload), bed.host(0), sc.seed);
  Process* proc = instance.process.get();
  const PortId owned_port = bed.fabric().AllocatePort(bed.host(0)->id, nullptr, "proc-owned");
  proc->AttachReceiveRight(owned_port);
  bed.manager(0)->RegisterLocal(proc);

  // Observable content at each finishing incarnation's last breath (see the
  // MechRun comment for why this cannot wait until the testbed drains).
  std::map<const Process*, std::uint64_t> checksums;
  auto observe = [&checksums, &bed, &instance](Process* p) {
    if (p->done()) {
      checksums[p] = ObservableChecksum(*p->space(), bed.segments(), instance.planned_touches);
    }
  };
  proc->set_on_terminate(observe);

  // Latest incarnation inserted at each host (rollbacks re-insert at the
  // hop's source, so "latest" is the one that matters).
  std::vector<Process*> latest(static_cast<std::size_t>(sc.host_count), nullptr);
  latest[0] = proc;
  for (int i = 0; i < sc.host_count; ++i) {
    if (i == sc.dest) {
      continue;  // dest gets the re-migration arming handler below
    }
    bed.manager(i)->set_on_insert([&latest, i, &observe](Process* inserted) {
      latest[static_cast<std::size_t>(i)] = inserted;
      inserted->set_on_terminate(observe);
    });
  }

  // The intermediary's and the origin's backer counters at the collapse
  // (or at hop-2 completion if nothing collapses); MechRun reports the
  // traffic after this instant.
  bool have_snapshot = false;
  std::uint64_t dest_requests_snap = 0;
  std::uint64_t dest_forwards_snap = 0;
  std::uint64_t origin_requests_snap = 0;
  auto snapshot = [&]() {
    dest_requests_snap = bed.netmsg(sc.dest)->backer().requests_served();
    dest_forwards_snap = bed.netmsg(sc.dest)->backer().requests_forwarded();
    origin_requests_snap = bed.netmsg(0)->backer().requests_served();
    have_snapshot = true;
  };
  if (sc.remigrate) {
    bed.manager(sc.dest)->set_on_collapse([&](const ChainCollapseStats& stats) {
      run.collapse_done = true;
      run.collapse = stats;
      snapshot();
    });
  }

  // Re-migration arms exactly once, on the first landing at dest: execute
  // remigrate_at of the trace remaining there, then move on under the same
  // strategy. A rollback re-inserting at dest must not re-arm (the guard),
  // but is still tracked as the latest incarnation there.
  bool armed = false;
  bed.manager(sc.dest)->set_on_insert([&](Process* at_dest) {
    latest[static_cast<std::size_t>(sc.dest)] = at_dest;
    at_dest->set_on_terminate(observe);
    if (!sc.remigrate || armed) {
      return;
    }
    armed = true;
    const std::size_t pc = at_dest->trace_pc();
    const std::size_t size = at_dest->trace()->size();
    const std::size_t span = size > pc ? size - pc : 0;
    std::size_t target =
        pc + static_cast<std::size_t>(static_cast<double>(span) * sc.remigrate_at);
    if (target <= pc) {
      target = pc + 1;
    }
    if (target >= size && size > 0) {
      target = size - 1;  // at worst, just before the terminate op
    }
    at_dest->SuspendAt(target, [&, at_dest]() {
      run.remigrate_fired = true;
      bed.manager(sc.dest)->Migrate(at_dest, bed.manager(sc.redest)->port(), sc.strategy,
                                    [&](const MigrationRecord& record) {
                                      run.hop2 = record;
                                      run.hop2_done = true;
                                      if (!have_snapshot) {
                                        snapshot();
                                      }
                                    });
    });
  });

  if (sc.live_migrate_at != SimDuration{0}) {
    proc->Start();
    bed.sim().RunUntil(sc.live_migrate_at);
  }
  bed.manager(0)->Migrate(proc, bed.manager(sc.dest)->port(), sc.strategy,
                          [&run](const MigrationRecord& record) {
                            run.hop1 = record;
                            run.hop1_done = true;
                          });

  // The watchdog. A homogeneous bed drains the longest workload (Chess, 480 s
  // of compute) plus the 600 s abort backstop well inside an hour; calibrated
  // hosts can run CPU and wire at half speed, so a calibrated bed gets two.
  run.drained = bed.RunGuarded(AnyCalibrated(sc.calibrations) ? Sec(7200.0) : Sec(3600.0));

  // Snapshot the authoritative incarnation that finished — after an aborted
  // first hop the source's rollback, otherwise the furthest hop's — and
  // whether any faulted, before the testbed and its processes die.
  std::vector<int> order;
  if (sc.remigrate) {
    order.push_back(sc.redest);
  }
  order.push_back(sc.dest);
  order.insert(run.hop1_done && run.hop1.aborted ? order.begin() : order.end(), 0);
  for (int host : order) {
    Process* p = latest[static_cast<std::size_t>(host)];
    if (p == nullptr) {
      continue;
    }
    run.any_faulted = run.any_faulted || p->faulted();
    if (!run.finished && p->done()) {
      run.finished = true;
      run.finish_host = host;
      run.finish = p->finish_time();
      const auto it = checksums.find(p);
      ACCENT_CHECK(it != checksums.end())
          << " a finished incarnation must have been observed at kTerminate";
      run.checksum = it->second;
    }
  }

  std::ostringstream backer_detail;
  for (int i = 0; i < sc.host_count; ++i) {
    const SegmentBacker& backer = bed.netmsg(i)->backer();
    run.duplicate_deaths += backer.duplicate_deaths();
    if (i != 0 && backer.object_count() != 0) {
      run.nonorigin_objects_clear = false;
      backer_detail << " host" << i << ":objects=" << backer.object_count();
    }
    const PagerStats& ps = bed.pager(i)->stats();
    run.cache_activity += ps.cache_local_hits + ps.cache_pages_confirmed +
                          ps.cache_pages_from_holders + ps.cache_pull_pages_served;
    run.dedup_mismatches += ps.cache_hash_rejects;
    run.dedup_mismatches += backer.confirm_mismatches();
    if (PageService* service = bed.page_service(i)) {
      run.dedup_mismatches += service->cache().stats().hash_mismatches;
    }
    run.checkpoints += bed.manager(i)->checkpoints_sent();
    run.restores += bed.manager(i)->restores_completed();
  }
  run.backer_detail = backer_detail.str();

  for (int i : {0, sc.dest}) {
    const NetMsgStats& stats = bed.netmsg(i)->stats();
    run.netmsg.fragments_retransmitted += stats.fragments_retransmitted;
    run.netmsg.retransmit_bytes += stats.retransmit_bytes;
    run.netmsg.duplicates_suppressed += stats.duplicates_suppressed;
    run.netmsg.transfers_dead_lettered += stats.transfers_dead_lettered;
  }
  run.deliveries_lost = bed.network().deliveries_lost();
  for (std::size_t kind = 0; kind < run.wire_bytes.size(); ++kind) {
    run.wire_bytes[kind] = bed.traffic().BytesOf(static_cast<TrafficKind>(kind));
  }

  if (sc.remigrate) {
    const SegmentBacker& intermediary = bed.netmsg(sc.dest)->backer();
    if (have_snapshot) {
      run.dest_requests_after_collapse = intermediary.requests_served() - dest_requests_snap;
      run.dest_forwards_after_collapse = intermediary.requests_forwarded() - dest_forwards_snap;
      run.origin_requests_after_collapse =
          bed.netmsg(0)->backer().requests_served() - origin_requests_snap;
    }
    run.dest_objects = intermediary.object_count();
    run.dest_stubs = intermediary.stub_count();
    run.dest_handoff_pages = intermediary.handoff_pages_sent();
    run.redest_imag_faults = bed.pager(sc.redest)->stats().imag_faults;
  }
  return run;
}

FaultPlan PlantFaults(const FuzzScenario& sc, const MechRun& baseline) {
  FaultPlan plan;
  plan.drop = sc.drop;
  plan.duplicate = sc.duplicate;
  plan.delay = sc.delay;
  plan.reorder = sc.reorder;
  const HostId source(1);
  const HostId dest(static_cast<std::uint64_t>(sc.dest + 1));
  const SimTime mid_transfer =
      baseline.hop1.excise_done + (baseline.hop1.resumed - baseline.hop1.excise_done) / 2;
  if (sc.partition_transfer) {
    // Transient: the reliable transport must ride it out.
    plan.partitions.push_back(LinkPartition{source, dest, mid_transfer, mid_transfer + Sec(1.0)});
  }
  if (sc.crash_dest) {
    plan.crashes.push_back(CrashWindow{dest, mid_transfer, kFaultForever});
  }
  if (sc.crash_source) {
    // 30% into the baseline's remote execution: copy-on-reference debts are
    // typically still outstanding (pure-copy carries none and must survive).
    const SimDuration remote_exec = baseline.finish - baseline.hop1.resumed;
    plan.crashes.push_back(
        CrashWindow{source, baseline.hop1.resumed + (remote_exec * 3) / 10, kFaultForever});
  }
  return plan;
}

MechVerdict Classify(const MechRun& run, std::uint64_t reference) {
  MechVerdict verdict;
  if (!run.drained) {
    verdict.failure = "hung;";
  } else if (!run.hop1_done) {
    // The abort timer should make a drained queue without a verdict
    // impossible.
    verdict.failure = "no migration verdict;";
  } else if (run.finished) {
    // Completed at the destination, or rolled back and re-finished at home:
    // either way the contents must match the reference.
    verdict.outcome = run.hop1.aborted ? FailureOutcome::kAborted : FailureOutcome::kCompleted;
    verdict.rolled_back = run.hop1.aborted && run.hop1.rolled_back;
    verdict.integrity_ok = run.checksum == reference;
    if (!verdict.integrity_ok) {
      verdict.failure = "integrity mismatch;";
    }
  } else if (run.hop1.aborted) {
    verdict.outcome = FailureOutcome::kAborted;
    verdict.rolled_back = run.hop1.rolled_back;
  } else if (run.any_faulted) {
    verdict.outcome = FailureOutcome::kTerminalFault;
  } else {
    verdict.failure = "drained without completion or fault;";
  }
  return verdict;
}

// A chain's final incarnation does not hold every planned page privately:
// pages touched only at an intermediate hop stay owed to the backing chain,
// so they are resolved through their backer object via the
// (simulation-global) segment table — which also checks that a collapse
// actually moved the bytes, not just the references.
std::uint64_t ObservableChecksum(const AddressSpace& space, const SegmentTable& segments,
                                 const std::set<PageIndex>& touches) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  for (PageIndex page : touches) {
    mix(page);
    if (space.HasPrivatePage(page)) {
      mix(PageIntegrityChecksum(space.ReadPage(page)));
    } else if (space.ClassOf(PageBase(page)) == MemClass::kImag) {
      const AddressSpace::ImagTarget target = space.ImagTargetOf(PageBase(page));
      Segment* backer = segments.Find(target.iou.segment);
      mix(backer != nullptr ? PageIntegrityChecksum(backer->ReadPage(PageOf(target.backer_offset)))
                            : 0);
    } else {
      mix(PageIntegrityChecksum(space.ReadPage(page)));
    }
  }
  return h;
}

// BuildWorkload is bit-deterministic per (spec, seed), so any later run
// must reproduce these page contents.
std::uint64_t ChainReferenceChecksum(const std::string& workload, std::uint64_t seed) {
  FuzzScenario reference;
  reference.seed = seed;
  reference.workload = workload;
  const MechRun run = RunMech(reference, FaultPlan{}, seed);
  ACCENT_CHECK(run.drained && run.hop1_done && run.finished)
      << " reference migration of " << workload << " did not finish";
  return run.checksum;
}

}  // namespace accent
