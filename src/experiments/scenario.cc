#include "src/experiments/scenario.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/base/check.h"
#include "src/base/page_data.h"
#include "src/experiments/sweep.h"
#include "src/experiments/testbed.h"
#include "src/experiments/trial.h"
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
  if (crash_dest_at != SimTime{0}) {
    out << " crash=dest@" << crash_dest_at.count() << "us";
  }
  if (!iou_caching) {
    out << " iou_caching=off";
  }
  if (frames_per_host != FuzzScenario{}.frames_per_host) {
    out << " frames=" << frames_per_host;
  }
  if (rs_zero_scan_per_mb != SimDuration{0}) {
    out << " rs_zero_scan=" << rs_zero_scan_per_mb.count() << "us/MB";
  }
  return out.str();
}

ByteCount MechRun::WireBytes() const {
  return std::accumulate(wire_bytes.begin(), wire_bytes.end(), ByteCount{0});
}

TestbedConfig TestbedConfigOf(const FuzzScenario& sc) {
  TestbedConfig config;
  config.host_count = sc.host_count;
  config.frames_per_host = sc.frames_per_host;
  config.costs.rs_zero_scan_per_mb = sc.rs_zero_scan_per_mb;
  config.iou_caching = sc.iou_caching;
  config.content_cache = sc.content_cache;
  config.content_cache_pages = sc.content_cache_pages;
  config.checkpoint_store = sc.checkpoint;
  config.checkpoint_host = sc.checkpoint_host;
  config.calibrations = sc.calibrations;
  config.tracer = sc.tracer;
  return config;
}

MechRun RunMech(const FuzzScenario& sc, const FaultPlan& plan, std::uint64_t fault_seed,
                const WorkloadImage* image) {
  TestbedConfig config = TestbedConfigOf(sc);
  config.fault_plan = plan;
  config.fault_seed = fault_seed;
  Testbed bed(config);
  bed.SetPrefetch(sc.prefetch);
  for (int i = 0; i < sc.host_count; ++i) {
    bed.manager(i)->set_precopy_config(sc.precopy);
  }

  MechRun run;
  WorkloadInstance instance =
      BuildWorkload(WorkloadByName(sc.workload), bed.host(0), sc.seed, image);
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
  run.messages = bed.traffic().TotalMessages();
  run.series = bed.traffic().buckets();
  run.netmsg_busy = bed.TotalNetMsgBusy();
  run.dest_pager = bed.pager(sc.dest)->stats();

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

ByteCount RealBytesTransferred(const FuzzScenario& sc, const MechRun& run) {
  ByteCount shipped = 0;
  switch (sc.strategy) {
    case TransferStrategy::kPureCopy:
      shipped = WorkloadByName(sc.workload).real_bytes;
      break;
    case TransferStrategy::kPureIou:
      // Substitution off, the NetMsgServer ships the RIMAS data as-is.
      shipped = sc.iou_caching ? 0 : WorkloadByName(sc.workload).real_bytes;
      break;
    case TransferStrategy::kResidentSet:
      shipped = run.hop1.resident_bytes_shipped;
      break;
    case TransferStrategy::kPreCopy:
      // Rounds shipped while running plus the freeze-and-flash remainder;
      // re-shipped dirty pages count every time they cross.
      shipped = run.hop1.precopy_bytes + run.hop1.precopy_flash_bytes;
      break;
  }
  return shipped + run.dest_pager.imag_pages_fetched * kPageSize;
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
  if (sc.crash_dest_at != SimTime{0}) {
    plan.crashes.push_back(CrashWindow{dest, sc.crash_dest_at, kFaultForever});
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
    verdict.restored = !run.hop1.aborted && run.restores > 0;
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

std::vector<MechTrial> RunMechTrials(const std::vector<FuzzScenario>& specs, int threads) {
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> references;
  for (const FuzzScenario& spec : specs) {
    ACCENT_CHECK(!spec.partition_transfer && !spec.crash_dest && !spec.crash_source)
        << " a phase-boundary window needs a baseline: " << spec.Describe();
    references.emplace(std::make_pair(spec.workload, spec.seed), 0);
  }
  std::vector<std::pair<std::string, std::uint64_t>> keys;
  for (const auto& [key, reference] : references) {
    keys.push_back(key);
  }
  const std::vector<std::uint64_t> checksums =
      ParallelMap(threads, keys.size(), [&keys](std::size_t i) {
        return ReferenceChecksum(keys[i].first, keys[i].second);
      });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    references[keys[i]] = checksums[i];
  }
  return ParallelMap(threads, specs.size(), [&specs, &references](std::size_t i) {
    const FuzzScenario& spec = specs[i];
    MechTrial trial{spec, RunMech(spec, PlantFaults(spec, MechRun{}), spec.seed), {}};
    trial.verdict = Classify(trial.run, references.at({spec.workload, spec.seed}));
    return trial;
  });
}

Json MechRowToJson(const FuzzScenario& spec, const MechRun& run, const MechVerdict& verdict) {
  const auto us = [](SimDuration d) { return Json(static_cast<std::int64_t>(d.count())); };
  Json row;
  row["spec"] = Json(spec.Describe());
  row["seed"] = Json(spec.seed);
  row["workload"] = Json(spec.workload);
  row["strategy"] = Json(StrategyName(spec.strategy));
  row["prefetch"] = Json(spec.prefetch);

  row["outcome"] = Json(FailureOutcomeName(verdict.outcome));
  row["integrity_ok"] = Json(verdict.integrity_ok);
  row["rolled_back"] = Json(verdict.rolled_back);
  row["restored"] = Json(verdict.restored);

  row["hung"] = Json(!run.drained);
  row["remigrated"] = Json(run.remigrate_fired);
  row["abort_reason"] = Json(run.hop1.abort_reason);
  row["finish_host"] = Json(run.finish_host);
  row["finished_us"] = us(run.finish);
  row["downtime_us"] = us(run.Downtime());
  row["hop2_downtime_us"] =
      us(run.hop2_done && !run.hop2.aborted ? run.hop2.Downtime() : SimDuration{0});
  row["request_to_finish_us"] = us(run.RequestToFinish());
  row["page_bytes"] = Json(run.PageBytes());
  row["wire_bytes"] = Json(run.WireBytes());
  row["precopy_rounds"] = Json(run.hop1.precopy_rounds);
  row["precopy_wws_pages"] = Json(run.hop1.precopy_wws_pages);
  row["precopy_predicted_downtime_us"] = us(run.hop1.precopy_predicted_downtime);
  row["precopy_slo_met"] = Json(run.hop1.precopy_slo_met);

  row["fragments_retransmitted"] = Json(run.netmsg.fragments_retransmitted);
  row["retransmit_bytes"] = Json(run.netmsg.retransmit_bytes);
  row["duplicates_suppressed"] = Json(run.netmsg.duplicates_suppressed);
  row["transfers_dead_lettered"] = Json(run.netmsg.transfers_dead_lettered);
  row["deliveries_lost"] = Json(run.deliveries_lost);

  row["collapse_done"] = Json(run.collapse_done);
  row["objects_handed_off"] = Json(run.collapse.objects_handed_off);
  row["rebinds_acked"] = Json(run.collapse.rebinds_acked);
  row["segments_rebound"] = Json(run.collapse.segments_rebound);
  row["collapsed_at_us"] = us(run.collapse.collapsed_at);
  row["dest_requests_after_collapse"] = Json(run.dest_requests_after_collapse);
  row["dest_forwards_after_collapse"] = Json(run.dest_forwards_after_collapse);
  row["origin_requests_after_collapse"] = Json(run.origin_requests_after_collapse);
  row["dest_objects"] = Json(run.dest_objects);
  row["dest_stubs"] = Json(run.dest_stubs);
  row["dest_handoff_pages"] = Json(run.dest_handoff_pages);
  row["redest_imag_faults"] = Json(run.redest_imag_faults);
  return row;
}

namespace {

Json DurationToJson(SimDuration d) { return Json(static_cast<std::int64_t>(d.count())); }

Json PagerStatsToJson(const PagerStats& stats) {
  Json json;
  json["resident_hits"] = Json(stats.resident_hits);
  json["fillzero_faults"] = Json(stats.fillzero_faults);
  json["disk_faults"] = Json(stats.disk_faults);
  json["cow_faults"] = Json(stats.cow_faults);
  json["imag_faults"] = Json(stats.imag_faults);
  json["imag_pages_fetched"] = Json(stats.imag_pages_fetched);
  json["prefetched_pages"] = Json(stats.prefetched_pages);
  json["prefetch_hits"] = Json(stats.prefetch_hits);
  json["pageouts"] = Json(stats.pageouts);
  json["address_errors"] = Json(stats.address_errors);
  json["failed_fetches"] = Json(stats.failed_fetches);
  // Content-cache counters exist only when the page service was wired;
  // emitting them conditionally keeps every legacy row byte-identical (the
  // golden sweep digest hashes these dumps).
  if (stats.cache_local_hits != 0 || stats.cache_pages_confirmed != 0 ||
      stats.cache_pages_from_holders != 0 || stats.cache_holder_misses != 0 ||
      stats.cache_holder_failovers != 0 || stats.cache_pull_pages_served != 0 ||
      stats.cache_hash_rejects != 0) {
    json["cache_local_hits"] = Json(stats.cache_local_hits);
    json["cache_pages_confirmed"] = Json(stats.cache_pages_confirmed);
    json["cache_pages_from_holders"] = Json(stats.cache_pages_from_holders);
    json["cache_holder_misses"] = Json(stats.cache_holder_misses);
    json["cache_holder_failovers"] = Json(stats.cache_holder_failovers);
    json["cache_pull_pages_served"] = Json(stats.cache_pull_pages_served);
    json["cache_hash_rejects"] = Json(stats.cache_hash_rejects);
  }
  return json;
}

Json SpecToJson(const WorkloadSpec& spec) {
  Json json;
  json["name"] = Json(spec.name);
  json["real_bytes"] = Json(spec.real_bytes);
  json["zero_bytes"] = Json(spec.zero_bytes);
  json["resident_bytes"] = Json(spec.resident_bytes);
  json["real_regions"] = Json(spec.real_regions);
  json["zero_regions"] = Json(spec.zero_regions);
  json["pattern"] = Json(static_cast<int>(spec.pattern));
  json["touched_real_pages"] = Json(spec.touched_real_pages);
  json["resident_touched_overlap"] = Json(spec.resident_touched_overlap);
  json["zero_touches"] = Json(spec.zero_touches);
  json["compute_us"] = DurationToJson(spec.compute);
  json["scan_density"] = Json(spec.scan_density);
  return json;
}

Json MigrationToJson(const MigrationRecord& record) {
  Json json;
  json["proc"] = Json(record.proc.value);
  json["name"] = Json(record.name);
  json["strategy"] = Json(static_cast<int>(record.strategy));
  json["requested_us"] = DurationToJson(record.requested);
  json["excise_done_us"] = DurationToJson(record.excise_done);
  json["core_sent_us"] = DurationToJson(record.core_sent);
  json["rimas_sent_us"] = DurationToJson(record.rimas_sent);
  json["excise_amap_us"] = DurationToJson(record.excise_amap);
  json["excise_rimas_us"] = DurationToJson(record.excise_rimas);
  json["excise_overall_us"] = DurationToJson(record.excise_overall);
  json["core_arrived_us"] = DurationToJson(record.core_arrived);
  json["rimas_arrived_us"] = DurationToJson(record.rimas_arrived);
  json["insert_time_us"] = DurationToJson(record.insert_time);
  json["resumed_us"] = DurationToJson(record.resumed);
  json["resident_bytes_shipped"] = Json(record.resident_bytes_shipped);
  json["precopy_rounds"] = Json(record.precopy_rounds);
  json["precopy_bytes"] = Json(record.precopy_bytes);
  json["frozen_us"] = DurationToJson(record.frozen);
  if (record.strategy == TransferStrategy::kPreCopy) {
    // SLO-loop diagnostics exist only for pre-copy trials; emitting them
    // conditionally keeps every legacy row byte-identical (the golden sweep
    // digest hashes these dumps).
    json["precopy_wws_pages"] = Json(record.precopy_wws_pages);
    json["precopy_predicted_downtime_us"] = DurationToJson(record.precopy_predicted_downtime);
    json["precopy_flash_bytes"] = Json(record.precopy_flash_bytes);
    json["precopy_slo_met"] = Json(record.precopy_slo_met);
  }
  return json;
}

Json SeriesToJson(const std::vector<TrafficRecorder::Bucket>& series) {
  Json json = Json::Array{};
  for (const TrafficRecorder::Bucket& bucket : series) {
    Json entry;
    entry["start_us"] = DurationToJson(bucket.start);
    Json bytes = Json::Array{};
    for (ByteCount b : bucket.bytes) {
      bytes.Append(Json(b));
    }
    entry["bytes"] = std::move(bytes);
    json.Append(std::move(entry));
  }
  return json;
}

Json TrialConfigToJson(const TrialConfig& config) {
  Json json;
  json["workload"] = Json(config.workload);
  json["strategy"] = Json(static_cast<int>(config.strategy));
  json["prefetch"] = Json(config.prefetch);
  json["seed"] = Json(config.seed);
  json["iou_caching"] = Json(config.iou_caching);
  json["frames_per_host"] = Json(static_cast<std::uint64_t>(config.frames_per_host));
  json["traffic_bucket_us"] = DurationToJson(kTrafficBucket);
  if (config.strategy == TransferStrategy::kPreCopy) {
    // Round/SLO knobs change pre-copy results, so they belong in the row;
    // emitting them only for pre-copy keeps legacy rows byte-identical.
    json["precopy_max_rounds"] = Json(config.precopy.max_rounds);
    json["precopy_stop_threshold"] =
        Json(static_cast<std::uint64_t>(config.precopy.stop_threshold));
    json["precopy_target_downtime_us"] = DurationToJson(config.precopy.target_downtime);
  }
  if (config.content_cache) {
    // The dedup plane adds hash riders and probe traffic, so it belongs in
    // the row; emitting it only when enabled keeps legacy rows intact.
    json["content_cache"] = Json(true);
    json["content_cache_pages"] = Json(config.content_cache_pages);
  }
  if (config.checkpoint) {
    // The checkpoint put and the store's ack shift phase timings, so the
    // store belongs in the row; emitting it only when enabled keeps legacy
    // rows intact.
    json["checkpoint"] = Json(true);
  }
  return json;
}

}  // namespace

Json TrialResultToJson(const TrialResult& result) {
  Json json;
  json["config"] = TrialConfigToJson(result.config);
  json["spec"] = SpecToJson(result.spec);
  json["migration"] = MigrationToJson(result.migration);
  json["finished_us"] = DurationToJson(result.finished);
  json["remote_exec_us"] = DurationToJson(result.remote_exec);
  json["bytes_total"] = Json(result.bytes_total);
  json["bytes_control"] = Json(result.bytes_control);
  json["bytes_core"] = Json(result.bytes_core);
  json["bytes_bulk"] = Json(result.bytes_bulk);
  json["bytes_fault"] = Json(result.bytes_fault);
  json["messages_total"] = Json(result.messages_total);
  json["series"] = SeriesToJson(result.series);
  json["series_bucket_us"] = DurationToJson(kTrafficBucket);
  json["netmsg_busy_us"] = DurationToJson(result.netmsg_busy);
  json["dest_pager"] = PagerStatsToJson(result.dest_pager);
  json["real_bytes_transferred"] = Json(result.real_bytes_transferred);
  return json;
}

namespace {

// FNV-1a offset basis: both integrity folds start from it.
constexpr std::uint64_t kFoldBasis = 1469598103934665603ull;

// One FNV-1a step of an integrity fold: `v`'s eight bytes, low byte first.
// ObservableChecksum and ReferenceChecksum both mix through it, so a run's
// fold and the reference's cannot drift apart.
inline void FoldMix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  }
}

// True when `page` lies in one of the image's Real or RealZero regions,
// which are listed in address order.
bool ImageMaps(const WorkloadImage& image, PageIndex page) {
  auto after = std::upper_bound(
      image.regions.begin(), image.regions.end(), page,
      [](PageIndex p, const WorkloadRegion& region) { return p < region.first; });
  return after != image.regions.begin() && page < std::prev(after)->first + std::prev(after)->pages;
}

}  // namespace

// A chain's final incarnation does not hold every planned page privately:
// pages touched only at an intermediate hop stay owed to the backing chain,
// so they are resolved through their backer object via the
// (simulation-global) segment table — which also checks that a collapse
// actually moved the bytes, not just the references.
std::uint64_t ObservableChecksum(const AddressSpace& space, const SegmentTable& segments,
                                 const std::set<PageIndex>& touches) {
  std::uint64_t h = kFoldBasis;
  for (PageIndex page : touches) {
    FoldMix(h, page);
    if (space.HasPrivatePage(page)) {
      FoldMix(h, PageIntegrityChecksum(space.ReadPage(page)));
    } else if (space.ClassOf(PageBase(page)) == MemClass::kImag) {
      const AddressSpace::ImagTarget target = space.ImagTargetOf(PageBase(page));
      Segment* backer = segments.Find(target.iou.segment);
      FoldMix(h, backer != nullptr
                     ? PageIntegrityChecksum(backer->ReadPage(PageOf(target.backer_offset)))
                     : 0);
    } else {
      FoldMix(h, PageIntegrityChecksum(space.ReadPage(page)));
    }
  }
  return h;
}

// A trace write stores an absolute byte, and nothing else a run does
// changes a RealMem page's contents, so the image and its trace alone give
// the contents an unmigrated run ends with. The fold writes through its own
// copies of the image's pages, so each write clones the shared payload and
// the image stays as planned.
std::uint64_t ReferenceChecksum(const std::string& workload, std::uint64_t seed,
                                const WorkloadImage* image) {
  if (image == nullptr) {
    const WorkloadImage planned = BuildWorkloadImage(WorkloadByName(workload), seed);
    return ReferenceChecksum(workload, seed, &planned);
  }
  ACCENT_CHECK(image->workload == workload && image->seed == seed)
      << " reference of " << workload << " seed " << seed << " from the image of "
      << image->workload << " seed " << image->seed;
  ACCENT_CHECK_EQ(image->pages.size(), WorkloadByName(workload).real_pages());

  // Each planned page, ascending, from its image contents.
  const std::vector<PageIndex> pages(image->planned_touches.begin(),
                                     image->planned_touches.end());
  std::vector<PageRef> contents;
  contents.reserve(pages.size());
  auto real = image->real_page_list.begin();
  for (PageIndex page : pages) {
    real = std::lower_bound(real, image->real_page_list.end(), page);
    ACCENT_CHECK(real != image->real_page_list.end() && *real == page)
        << " planned touch " << page << " of " << workload << " is not a RealMem page";
    contents.push_back(image->pages[real - image->real_page_list.begin()]);
  }

  // The trace up to its kTerminate, as the unmigrated run executes it: a
  // touch outside the image's regions would fault that run, so it has no
  // reference either.
  bool terminated = false;
  for (const TraceOp& op : *image->trace) {
    if (op.kind == TraceOp::Kind::kTerminate) {
      terminated = true;
      break;
    }
    if (op.kind != TraceOp::Kind::kTouch) {
      continue;
    }
    const PageIndex page = PageOf(op.addr);
    ACCENT_CHECK(ImageMaps(*image, page))
        << " the trace of " << workload << " seed " << seed << " touches unmapped page " << page;
    if (!op.write) {
      continue;
    }
    auto planned = std::lower_bound(pages.begin(), pages.end(), page);
    if (planned != pages.end() && *planned == page) {
      contents[planned - pages.begin()].WriteByte(op.addr % kPageSize, op.value);
    }
  }
  ACCENT_CHECK(terminated) << " the trace of " << workload << " seed " << seed
                           << " never terminates";

  std::uint64_t h = kFoldBasis;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    FoldMix(h, pages[i]);
    FoldMix(h, PageIntegrityChecksum(contents[i]));
  }
  return h;
}

}  // namespace accent
