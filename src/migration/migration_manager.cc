#include "src/migration/migration_manager.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/base/logging.h"
#include "src/fs/file_service.h"
#include "src/migration/cost_model.h"

namespace accent {

const char* StrategyName(TransferStrategy strategy) {
  switch (strategy) {
    case TransferStrategy::kPureCopy: return "pure-copy";
    case TransferStrategy::kPureIou: return "pure-IOU";
    case TransferStrategy::kResidentSet: return "resident-set";
    case TransferStrategy::kPreCopy: return "pre-copy";
  }
  return "?";
}

MigrationManager::MigrationManager(HostEnv* env) : env_(env) {
  ACCENT_EXPECTS(env != nullptr && env->complete());
  ACCENT_EXPECTS(env->netmsg != nullptr) << " migration requires a NetMsgServer";
}

void MigrationManager::Start() {
  ACCENT_EXPECTS(!port_.valid()) << " manager started twice";
  port_ = env_->fabric->AllocatePort(env_->id, this, "migration-manager");
  // Claim the local NetMsgServer's dead-letter channel: an undeliverable
  // context message means the peer is gone and the migration must abort.
  // (Only ever invoked in reliable mode; registering is free otherwise.)
  env_->netmsg->set_dead_letter_handler(
      [this](const Message& msg) { HandleDeadLetter(msg); });
}

void MigrationManager::RegisterLocal(Process* proc) {
  ACCENT_EXPECTS(proc != nullptr);
  local_[proc->id().value] = proc;
}

std::vector<Process*> MigrationManager::RunnableLocalProcesses() const {
  std::vector<Process*> runnable;
  for (const auto& [id, proc] : local_) {
    if (proc->state() == ProcState::kRunning || proc->state() == ProcState::kReady) {
      runnable.push_back(proc);
    }
  }
  return runnable;
}

namespace {

// Splits the RIMAS's Real regions by `keep` (ascending): each maximal run of
// kept pages stays a Data region, in order among the other regions, and
// every other Real page moves to `rest` in address order, or is dropped
// when `rest` is null.
void PartitionRealRuns(Message* rimas, const std::vector<PageIndex>& keep,
                       std::vector<std::pair<PageIndex, PageRef>>* rest) {
  const auto kept = [&keep](PageIndex page) {
    return std::binary_search(keep.begin(), keep.end(), page);
  };
  std::vector<MemoryRegion> regions;
  for (MemoryRegion& region : rimas->regions) {
    if (region.mem_class != MemClass::kReal) {
      regions.push_back(std::move(region));
      continue;
    }
    const PageIndex first = PageOf(region.base);
    PageIndex i = 0;
    while (i < region.page_count()) {
      if (!kept(first + i)) {
        if (rest != nullptr) {
          rest->emplace_back(first + i, std::move(region.pages[i]));
        }
        ++i;
        continue;
      }
      const PageIndex run_start = i;
      std::vector<PageRef> pages;
      while (i < region.page_count() && kept(first + i)) {
        pages.push_back(std::move(region.pages[i]));
        ++i;
      }
      regions.push_back(MemoryRegion::Data(region.base + run_start * kPageSize, std::move(pages)));
    }
  }
  rimas->regions = std::move(regions);
}

}  // namespace

void MigrationManager::ApplyStrategy(Message* rimas, TransferStrategy strategy,
                                     const std::vector<PageIndex>& keep, ByteCount zero_bytes,
                                     MigrationRecord* record) {
  switch (strategy) {
    case TransferStrategy::kPureCopy:
    case TransferStrategy::kPreCopy:
      // Guarantee physical delivery of every RealMem page (section 2.4);
      // pre-copy's flash, like pure-copy, leaves no residual dependency.
      rimas->no_ious = true;
      return;
    case TransferStrategy::kPureIou:
      // Let the intermediary NetMsgServer cache the data and substitute
      // IOUs on its own initiative (section 3.2).
      rimas->no_ious = false;
      return;
    case TransferStrategy::kResidentSet:
      break;
  }

  // Resident-set: keep resident pages as physical data, hand everything
  // else to the local NetMsgServer as a single VA-indexed backed object.
  std::vector<std::pair<PageIndex, PageRef>> owed;
  PartitionRealRuns(rimas, keep, &owed);
  if (!owed.empty()) {
    // The RIMAS lists its regions in address order, so `owed` is ascending.
    const Addr owed_lo = PageBase(owed.front().first);
    const Addr owed_hi = PageBase(owed.back().first) + kPageSize;
    std::vector<PageHashEntry> rider = env_->netmsg->PublishIouPages(owed, owed_lo);
    IouRef iou =
        env_->netmsg->AdoptPages(std::move(owed), "rs-owed:" + record->name, record->proc);
    // The backed object is VA-indexed; the region offset convention is
    // relative to the region base, so anchor it there.
    iou.offset = owed_lo;
    MemoryRegion iou_region = MemoryRegion::Iou(owed_lo, owed_hi - owed_lo, iou);
    iou_region.page_hashes = std::move(rider);
    rimas->regions.push_back(std::move(iou_region));
  }
  rimas->no_ious = true;  // what remains physical must stay physical
  record->resident_bytes_shipped = rimas->DataBytes();
  // Partitioning the RIMAS means walking the whole validated map, including
  // the untouched zero-fill expanses Lisp processes validate at birth — the
  // cost Table 4-5's measured resident-set column carries but a pure page
  // walk misses. Zero by default (costs.rs_zero_scan_per_mb).
  record->rs_packaging_extra =
      SimDuration(env_->costs->rs_zero_scan_per_mb.count() *
                  static_cast<std::int64_t>(zero_bytes / (1024 * 1024)));
}

void MigrationManager::Migrate(Process* proc, PortId dest_manager, TransferStrategy strategy,
                               MigrateDone done) {
  ACCENT_EXPECTS(proc != nullptr && done != nullptr);
  ACCENT_EXPECTS(proc->env() == env_) << " process is not on this manager's host";
  const bool precopy = strategy == TransferStrategy::kPreCopy;
  ACCENT_EXPECTS(!precopy || precopy_config_.max_rounds >= 1);
  ACCENT_EXPECTS(outbound_.count(proc->id().value) == 0)
      << " process " << proc->id().value << " already has an outbound migration";

  Outbound& out = outbound_[proc->id().value];
  out.phase = precopy ? Phase::kLive : Phase::kFreezing;
  out.proc = proc;
  out.dest_manager = dest_manager;
  out.done = std::move(done);
  out.config = precopy_config_;
  out.record.proc = proc->id();
  out.record.name = proc->name();
  out.record.strategy = strategy;
  out.record.requested = env_->sim->Now();
  ArmAbortTimer(proc->id());

  if (Tracer* tracer = env_->sim->tracer()) {
    TraceArgs args{{"proc", Json(out.record.proc.value)},
                   {"workload", Json(out.record.name)},
                   {"strategy", Json(StrategyName(strategy))},
                   {"dest_manager", Json(dest_manager.value)}};
    if (precopy) {
      args.push_back({"max_rounds", Json(out.config.max_rounds)});
      args.push_back({"target_downtime_us", Json(out.config.target_downtime.count())});
    }
    tracer->Instant(env_->id, TraceLane::kMigration, "migrate:request", out.record.requested,
                    std::move(args));
  }

  if (!precopy) {
    Freeze(&out);
    return;
  }
  proc->space()->MarkAllClean();
  proc->space()->ArmWriteTracking();
  SendRound(&out);
}

void MigrationManager::SendRound(Outbound* out) {
  AddressSpace* space = out->proc->space();
  MigrationRecord& record = out->record;
  // Round 0 snapshots everything; later rounds re-ship what was dirtied
  // while the previous round was in flight.
  const int round = record.precopy_rounds++;
  const std::vector<PageIndex> pages = round == 0 ? space->RealPages() : space->DirtyPages();
  space->MarkAllClean();

  PreCopyRoundBody body;
  body.proc = record.proc;
  body.round = round;
  body.reply_port = port_;

  Message msg;
  msg.dest = out->dest_manager;
  msg.op = MsgOp::kUser;
  msg.no_ious = true;  // snapshots must arrive physically
  msg.traffic = TrafficKind::kBulkData;
  msg.inline_bytes = 32;
  msg.body = body;
  // Contiguous runs become regions.
  std::size_t i = 0;
  while (i < pages.size()) {
    std::size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) {
      ++j;
    }
    std::vector<PageRef> data;
    data.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) {
      data.push_back(space->ReadPage(pages[k]));
    }
    msg.regions.push_back(MemoryRegion::Data(PageBase(pages[i]), std::move(data)));
    i = j;
  }
  record.precopy_bytes += msg.DataBytes();
  out->round_pages = pages.size();
  out->round_start = env_->sim->Now();

  // Round handling: dirty-bitmap harvest + run construction on top of the
  // RIMAS-style descriptor work. The next step waits for the receiver's
  // ack (flow control: the V system's network overruns came from the lack
  // of exactly this).
  env_->cpu->Submit(CpuWork::kMigration,
                    env_->costs->migration_rimas_handling + env_->costs->precopy_round_control,
                    [this, msg = std::move(msg)]() mutable {
                      Result<void> sent = env_->fabric->Send(env_->id, std::move(msg));
                      ACCENT_CHECK(sent.ok()) << sent.error().message;
                    });
}

void MigrationManager::OnRoundAcked(const PreCopyAckBody& ack) {
  auto it = outbound_.find(ack.proc.value);
  if (it == outbound_.end() || it->second.phase != Phase::kLive ||
      it->second.record.precopy_rounds != ack.round + 1) {
    // No round waits for this ack: its migration aborted while the round
    // was in flight.
    ACCENT_LOG(kInfo) << "dropping pre-copy ack for " << ack.proc << " round " << ack.round;
    return;
  }
  Outbound& out = it->second;
  Process* proc = out.proc;
  if (proc->done() || proc->faulted()) {
    // The process ran to completion (or died) at the source while the
    // round was in flight; there is nothing left worth freezing.
    AbortMigration(ack.proc, "process terminated before pre-copy freeze");
    return;
  }
  MigrationRecord& rec = out.record;
  const PreCopyConfig& config = out.config;
  const int round = ack.round;
  const std::size_t dirty = proc->space()->dirty_count();
  // Writable working set: an EWMA over per-round dirty counts. Recent
  // rounds dominate, so a phase change (a Lisp GC kicking in, a scan
  // wrapping around) re-steers the estimate within a round or two.
  rec.precopy_wws_pages = round == 0
                              ? static_cast<double>(dirty)
                              : 0.5 * rec.precopy_wws_pages + 0.5 * static_cast<double>(dirty);

  if (Tracer* tracer = env_->sim->tracer()) {
    // Rounds are strictly sequential (ack flow control) and each next
    // round starts at the instant the previous ack lands, so these spans
    // tile the live-transfer phase exactly (docs/OBSERVABILITY.md).
    tracer->Complete(env_->id, TraceLane::kMigration, "precopy:round", out.round_start,
                     env_->sim->Now() - out.round_start,
                     {{"round", Json(round)},
                      {"pages", Json(static_cast<std::uint64_t>(out.round_pages))},
                      {"dirty_at_ack", Json(static_cast<std::uint64_t>(dirty))},
                      {"wws_pages", Json(rec.precopy_wws_pages)}});
  }

  const bool out_of_rounds = round + 1 >= config.max_rounds;
  const bool converged = dirty <= config.stop_threshold;
  bool slo_met = false;
  bool stagnated = false;
  if (config.target_downtime > SimDuration::zero()) {
    // The destination's calibration is unknown at the source; predicting
    // with a nominal (identity) destination keeps the predictor local.
    const SimDuration predicted = MigrationCostModel::PreCopyCostOn(
        *env_->costs, FootprintOf(*proc), static_cast<std::int64_t>(dirty),
        env_->calibration, HostCalibration{});
    rec.precopy_predicted_downtime = predicted;
    slo_met = predicted <= config.target_downtime;
    rec.precopy_slo_met = slo_met;
    // A round that failed to shrink the dirty set cannot meet the SLO
    // later either — the process rewrites its working set faster than
    // the wire drains it. Further rounds only waste bytes.
    stagnated = round > 0 && dirty >= out.prev_dirty;
  }
  out.prev_dirty = dirty;

  if (out_of_rounds || converged || slo_met || stagnated) {
    Freeze(&out);
    return;
  }
  SendRound(&out);
}

void MigrationManager::Freeze(Outbound* out) {
  // The entry outlives this phase: an abort while freezing only flags the
  // record, and OnExcised finishes it.
  out->phase = Phase::kFreezing;
  out->proc->RequestSuspend([this, out]() {
    Process* proc = out->proc;
    MigrationRecord& record = out->record;
    // Sample what the strategy needs now: excision destroys residency and
    // takes the space away.
    std::vector<PageIndex> keep;
    ByteCount zero_bytes = 0;
    if (record.strategy == TransferStrategy::kResidentSet) {
      keep = env_->memory->PagesOf(proc->space()->id());
      zero_bytes = proc->space()->RealZeroBytes();
    } else if (record.strategy == TransferStrategy::kPreCopy) {
      record.frozen = env_->sim->Now();
      proc->space()->DisarmWriteTracking();  // the excise harvests the final set
      if (Tracer* tracer = env_->sim->tracer()) {
        tracer->Instant(env_->id, TraceLane::kMigration, "precopy:frozen", record.frozen,
                        {{"proc", Json(record.proc.value)},
                         {"rounds", Json(record.precopy_rounds)},
                         {"dirty_pages",
                          Json(static_cast<std::uint64_t>(proc->space()->dirty_count()))}});
      }
      // Pages dirtied since the last acknowledged round must travel in the
      // RIMAS; everything else is already staged at the destination.
      keep = proc->space()->DirtyPages();
    }
    ExciseProcess(proc, [this, out, keep = std::move(keep), zero_bytes](ExciseResult excised) {
      OnExcised(out, keep, zero_bytes, std::move(excised));
    });
  });
}

void MigrationManager::OnExcised(Outbound* out, const std::vector<PageIndex>& keep,
                                 ByteCount zero_bytes, ExciseResult excised) {
  MigrationRecord& rec = out->record;
  rec.excise_amap = excised.amap_time;
  rec.excise_rimas = excised.rimas_time;
  rec.excise_overall = excised.overall_time;
  rec.excise_done = env_->sim->Now();

  if (rec.aborted) {
    // The abort landed while the process was being frozen and excised:
    // nothing has left this host, so roll back with the image just cut.
    out->rollback_core = std::move(excised.core);
    out->rollback_rimas = std::move(excised.rimas);
    RollBack(rec.proc);
    return;
  }
  if (checkpoint_store_.valid()) {
    // Checkpoint the pre-strategy image: the strategy and pre-copy's dirty
    // filter move pages out of these regions, so the durable copy must be
    // cut first.
    CheckpointExcised(excised, keep, &rec);
  }
  ApplyStrategy(&excised.rimas, rec.strategy, keep, zero_bytes, &rec);
  RecordChainOrigin(rec.proc, out->dest_manager, excised.rimas);
  if (failure_handling_enabled()) {
    // Keep the authoritative context until the transfer-complete handshake:
    // rollback re-inserts these exact messages (the copies share page
    // payloads; fault-injection testbeds only). Pre-copy's is the full
    // image: its staged clean pages live at the destination, so the
    // filtered flash RIMAS alone could not rebuild the process here.
    out->rollback_core = excised.core;
    out->rollback_rimas = excised.rimas;
  }
  if (rec.strategy == TransferStrategy::kPreCopy) {
    // The flash carries only the dirty pages; the clean ones are staged.
    PartitionRealRuns(&excised.rimas, keep, nullptr);
    excised.rimas.body = RimasBody{rec.proc, /*precopy_flash=*/true};
    rec.precopy_flash_bytes = excised.rimas.DataBytes();
  }
  out->phase = Phase::kSent;
  SendExcisedContext(out, std::move(excised));
}

void MigrationManager::ArmAbortTimer(ProcId proc) {
  if (!failure_handling_enabled()) {
    return;
  }
  // The requested timestamp identifies this attempt: a later re-migration
  // of the same (rolled-back) process must not be killed by a stale timer.
  const SimTime attempt = outbound_.at(proc.value).record.requested;
  env_->sim->ScheduleAfter(env_->costs->migration_abort_timeout, [this, proc, attempt]() {
    auto it = outbound_.find(proc.value);
    if (it != outbound_.end() && it->second.record.requested == attempt) {
      AbortMigration(proc, "transfer-complete handshake timed out");
    }
  });
}

void MigrationManager::ArmPendingTimeout(ProcId proc, PendingInsert* pending) {
  if (!failure_handling_enabled() || pending->timeout_armed) {
    return;
  }
  pending->timeout_armed = true;
  env_->sim->ScheduleAfter(env_->costs->migration_pending_timeout, [this, proc]() {
    auto it = pending_.find(proc.value);
    if (it == pending_.end() || (it->second.have_core && it->second.have_rimas)) {
      return;  // completed (or already torn down)
    }
    ACCENT_LOG(kInfo) << "tearing down half-arrived context for " << proc
                      << " (peer presumed gone)";
    pending_.erase(it);
  });
}

void MigrationManager::ArmStagingTimeout(ProcId proc, PendingInsert* pending) {
  if (!failure_handling_enabled()) {
    return;
  }
  // Staged rounds arrive before any context, so ArmPendingTimeout never
  // covers them. The source's abort timer ends every attempt within
  // migration_abort_timeout of its request, which came before this round;
  // so once that long has passed since the latest round with no context
  // here, the attempt is over. The shorter migration_pending_timeout would
  // not do: one long round can outlast it, and staged pages dropped
  // mid-migration leave the flash RIMAS short of pages InsertProcess needs.
  const SimTime round = env_->sim->Now();
  pending->last_round = round;
  env_->sim->ScheduleAfter(env_->costs->migration_abort_timeout, [this, proc, round]() {
    auto it = pending_.find(proc.value);
    if (it == pending_.end() || it->second.last_round != round || it->second.have_core ||
        it->second.have_rimas) {
      return;  // inserted, staged again since, or left to ArmPendingTimeout
    }
    ACCENT_LOG(kInfo) << "dropping staged pre-copy rounds for " << proc
                      << " (attempt presumed over)";
    pending_.erase(it);
  });
}

void MigrationManager::AbortMigration(ProcId proc, const std::string& reason) {
  auto it = outbound_.find(proc.value);
  if (it == outbound_.end() || it->second.record.aborted) {
    return;  // already completed or aborted
  }
  Outbound& out = it->second;
  out.record.aborted = true;
  out.record.aborted_at = env_->sim->Now();
  out.record.abort_reason = reason;
  // An aborted re-migration never collapses: the rollback reinstates the
  // process here and this host legitimately remains its backer.
  chain_.erase(proc.value);
  ACCENT_LOG(kInfo) << "aborting migration of " << proc << ": " << reason;
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "migrate:abort", out.record.aborted_at,
                    {{"proc", Json(proc.value)}, {"reason", Json(reason)}});
  }

  switch (out.phase) {
    case Phase::kLive: {
      // The process never stopped running here. Nothing to restore, but
      // the rounds left write tracking armed — disarm it.
      out.proc->space()->DisarmWriteTracking();
      Outbound live = std::move(outbound_.extract(it).mapped());
      live.record.rolled_back = true;
      live.done(live.record);
      return;
    }
    case Phase::kFreezing:
      return;  // OnExcised rolls back with the image it cuts
    case Phase::kSent:
      // The authoritative context was retained until the handshake.
      ACCENT_CHECK(failure_handling_enabled()) << " no rollback image for " << proc;
      RollBack(proc);
      return;
  }
}

void MigrationManager::RollBack(ProcId proc) {
  // InsertProcess rebuilds the process exactly as it was excised —
  // resident-set/IOU strategies left the owed pages in the *local*
  // NetMsgServer cache, which keeps serving them here.
  Outbound out = std::move(outbound_.extract(proc.value).mapped());
  InsertProcess(env_, std::move(out.rollback_core), std::move(out.rollback_rimas),
                [this, record = out.record, done = std::move(out.done)](
                    std::unique_ptr<Process> process, InsertResult result) mutable {
                  Process* raw = Adopt(std::move(process));
                  if (on_insert_ != nullptr) {
                    on_insert_(raw);
                  }
                  record.rolled_back = true;
                  record.rollback_insert = result.insert_time;
                  if (Tracer* tracer = env_->sim->tracer()) {
                    tracer->Instant(
                        env_->id, TraceLane::kMigration, "migrate:rolled-back",
                        env_->sim->Now(),
                        {{"proc", Json(record.proc.value)},
                         {"insert_us", Json(result.insert_time.count())}});
                  }
                  done(record);
                });
}

Process* MigrationManager::Adopt(std::unique_ptr<Process> process) {
  Process* raw = process.get();
  adopted_.push_back(std::move(process));
  RegisterLocal(raw);
  InstallRestoreFaultHook(raw);
  raw->Start();
  return raw;
}

void MigrationManager::HandleDeadLetter(const Message& msg) {
  switch (msg.op) {
    case MsgOp::kMigrateCore:
      AbortMigration(msg.BodyAs<CoreBody>().proc, "core context undeliverable");
      return;
    case MsgOp::kMigrateRimas:
      AbortMigration(msg.BodyAs<RimasBody>().proc, "RIMAS undeliverable");
      return;
    case MsgOp::kMigrateComplete:
      // The source vanished after we resumed its process. The process runs
      // on here; its residual dependencies will fault terminally if touched.
      ACCENT_LOG(kInfo) << "completion report undeliverable (source gone)";
      return;
    case MsgOp::kUser:
      if (const auto* round = std::any_cast<PreCopyRoundBody>(&msg.body)) {
        AbortMigration(round->proc, "pre-copy round undeliverable");
        return;
      }
      if (std::any_cast<PreCopyAckBody>(&msg.body) != nullptr) {
        ACCENT_LOG(kInfo) << "pre-copy ack undeliverable (sender gone)";
        return;
      }
      if (std::any_cast<FsCheckpointPut>(&msg.body) != nullptr ||
          std::any_cast<FsCheckpointGet>(&msg.body) != nullptr) {
        // The store host died. Checkpointing is best-effort insurance; the
        // migration itself proceeds unprotected.
        ACCENT_LOG(kInfo) << "checkpoint traffic undeliverable (store gone)";
        return;
      }
      if (std::any_cast<FsCheckpointPutAck>(&msg.body) != nullptr ||
          std::any_cast<FsCheckpointGetReply>(&msg.body) != nullptr) {
        ACCENT_LOG(kInfo) << "checkpoint reply undeliverable (requester gone)";
        return;
      }
      break;
    default:
      break;
  }
  ACCENT_LOG(kInfo) << "unhandled dead letter: " << MsgOpName(msg.op);
}

void MigrationManager::SendExcisedContext(Outbound* out, ExciseResult excised) {
  // The RIMAS message goes first so lazy transfers aren't queued behind the
  // Core/AMap stream; its manager handling is charged up front and is the
  // floor of Table 4-5's ~0.16 s pure-IOU transfers. The heavier
  // per-migration control work is charged at the destination manager
  // (command processing around the Core message, §4.3.2's ~1 s).
  MigrationRecord& record = out->record;
  if (Tracer* tracer = env_->sim->tracer()) {
    // The excise phase span: downtime start (freeze for pre-copy, request
    // otherwise) to the ExciseProcess trap returning.
    const SimTime phase_start = record.frozen > SimTime{0} ? record.frozen : record.requested;
    tracer->Complete(env_->id, TraceLane::kMigration, "migrate:excise", phase_start,
                     record.excise_done - phase_start,
                     {{"proc", Json(record.proc.value)},
                      {"amap_us", Json(record.excise_amap.count())},
                      {"rimas_us", Json(record.excise_rimas.count())}});
  }
  record.rimas_sent = env_->sim->Now();
  // Tag the RIMAS with its process so any cache objects the NetMsgServer
  // path adopts en route (IOU substitution) are recorded against it — the
  // handle a later chain collapse evacuates them by. Metadata only.
  const ProcId proc = record.proc;
  excised.rimas.cache_owner = proc;
  const SimTime attempt = record.requested;
  env_->cpu->Submit(CpuWork::kMigration,
                    env_->costs->migration_rimas_handling + record.rs_packaging_extra,
                    [this, proc, attempt, excised = std::move(excised)]() mutable {
    auto it = outbound_.find(proc.value);
    if (it == outbound_.end() || it->second.record.requested != attempt) {
      return;  // aborted while queued: the rollback re-inserted the context
    }
    Outbound& sending = it->second;
    excised.rimas.dest = sending.dest_manager;
    excised.rimas.reply_port = port_;
    Result<void> rimas_sent = env_->fabric->Send(env_->id, std::move(excised.rimas));
    ACCENT_CHECK(rimas_sent.ok()) << rimas_sent.error().message;

    excised.core.dest = sending.dest_manager;
    excised.core.reply_port = port_;
    sending.record.core_sent = env_->sim->Now();
    Result<void> core_sent = env_->fabric->Send(env_->id, std::move(excised.core));
    ACCENT_CHECK(core_sent.ok()) << core_sent.error().message;

    local_.erase(proc.value);
  });
}

void MigrationManager::RecordChainOrigin(ProcId proc, PortId dest_manager,
                                         const Message& rimas) {
  // A re-excised space folds its imaginary segments into the new RIMAS as
  // IOU regions. Those backed by a *remote* migration cache identify the
  // chain origin this host's own cache must collapse into once the process
  // resumes at the destination. First-hop migrations carry no such regions
  // and never enter the map — the lossless single-hop schedule is untouched.
  // A space can reference several remote caches (a ping-pong leaves one on
  // each side); the lowest-addressed one is chosen as the collapse target —
  // an origin that refuses the handoff just leaves ownership here.
  IouRef origin;
  for (const MemoryRegion& region : rimas.regions) {
    if (region.mem_class != MemClass::kImag || !region.iou.migration_cache) {
      continue;
    }
    if (region.iou.backing_port == env_->netmsg->backing_port()) {
      continue;  // our own cache (e.g. the rs-owed object just adopted)
    }
    if (!origin.backing_port.valid()) {
      origin = region.iou;
      origin.offset = 0;  // both objects are VA-indexed; anchor at zero
    }
  }
  if (!origin.backing_port.valid()) {
    return;
  }
  ChainState state;
  state.origin = origin;
  state.dest_manager = dest_manager;
  state.stats.proc = proc;
  chain_[proc.value] = state;
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "chain:detected",
                    env_->sim->Now(),
                    {{"proc", Json(proc.value)},
                     {"origin_segment", Json(origin.segment.value)}});
  }
}

void MigrationManager::StartChainCollapse(ProcId proc) {
  auto it = chain_.find(proc.value);
  if (it == chain_.end()) {
    return;
  }
  ChainState& state = it->second;
  std::vector<IouRef> objects = env_->netmsg->TakeCacheObjectsFor(proc);
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "chain:collapse-start",
                    env_->sim->Now(),
                    {{"proc", Json(proc.value)},
                     {"objects", Json(static_cast<std::uint64_t>(objects.size()))}});
  }
  if (objects.empty()) {
    // Nothing was cached here (e.g. a pure-copy second hop): the
    // destination already faults straight at the origin.
    FinishCollapseIfDone(proc);
    return;
  }
  state.pending_handoffs += static_cast<int>(objects.size());
  SegmentBacker& backer = env_->netmsg->backer();
  for (const IouRef& object : objects) {
    IouRef from = object;
    from.offset = 0;
    backer.ExportObject(object.segment, state.origin,
                        [this, proc, from](bool accepted) {
                          FinishHandoff(proc, from, accepted);
                        });
  }
}

void MigrationManager::FinishHandoff(ProcId proc, const IouRef& from, bool export_accepted) {
  auto it = chain_.find(proc.value);
  ACCENT_CHECK(it != chain_.end()) << " handoff ack for unknown chain " << proc;
  ChainState& state = it->second;
  --state.pending_handoffs;
  if (!export_accepted) {
    // The origin refused (object retired, or itself evacuating): ownership
    // stays here and the destination keeps faulting at this host — the
    // §2.2 default. No rebind, no stub.
    FinishCollapseIfDone(proc);
    return;
  }
  ++state.stats.objects_handed_off;
  // The origin holds the pages now; the destination must stop referencing
  // this host: rebind its IouRefs at the collapsed owner.
  ++state.pending_rebinds;
  RebindIouBody body;
  body.proc = proc;
  body.from = from;
  body.to = state.origin;
  body.reply_port = port_;
  Message msg;
  msg.dest = state.dest_manager;
  msg.op = MsgOp::kRebindIou;
  msg.traffic = TrafficKind::kControl;
  msg.inline_bytes = kRebindIouBodyBytes;
  msg.body = body;
  Result<void> sent = env_->fabric->Send(env_->id, std::move(msg));
  ACCENT_CHECK(sent.ok()) << sent.error().message;
}

void MigrationManager::FinishCollapseIfDone(ProcId proc) {
  auto it = chain_.find(proc.value);
  if (it == chain_.end()) {
    return;
  }
  ChainState& state = it->second;
  if (state.pending_handoffs > 0 || state.pending_rebinds > 0) {
    return;
  }
  state.stats.collapsed_at = env_->sim->Now();
  ChainCollapseStats stats = state.stats;
  chain_.erase(it);
  ++chains_collapsed_;
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "chain:collapsed",
                    stats.collapsed_at,
                    {{"proc", Json(stats.proc.value)},
                     {"objects", Json(stats.objects_handed_off)},
                     {"rebinds", Json(stats.rebinds_acked)},
                     {"segments", Json(stats.segments_rebound)}});
  }
  if (on_collapse_ != nullptr) {
    on_collapse_(stats);
  }
}

void MigrationManager::HandleMessage(Message msg) {
  switch (msg.op) {
    case MsgOp::kMigrateCore: {
      // Command processing around the Core context (connection setup,
      // manager bookkeeping): the bulk of the paper's ~1 s Core transfer.
      auto shared = std::make_shared<Message>(std::move(msg));
      env_->cpu->Submit(CpuWork::kMigration, env_->costs->migration_control, [this, shared]() {
        const auto& body = shared->BodyAs<CoreBody>();
        PendingInsert& pending = pending_[body.proc.value];
        pending.core_arrived = env_->sim->Now();
        pending.reply_port = shared->reply_port;
        pending.core = std::move(*shared);
        pending.have_core = true;
        if (Tracer* tracer = env_->sim->tracer()) {
          tracer->Instant(env_->id, TraceLane::kMigration,
                          "migrate:core-arrived", pending.core_arrived,
                          {{"proc", Json(body.proc.value)}});
        }
        ArmPendingTimeout(body.proc, &pending);
        MaybeInsert(body.proc);
      });
      return;
    }
    case MsgOp::kMigrateRimas: {
      const auto& body = msg.BodyAs<RimasBody>();
      PendingInsert& pending = pending_[body.proc.value];
      pending.rimas_arrived = env_->sim->Now();
      pending.rimas = std::move(msg);
      pending.have_rimas = true;
      if (Tracer* tracer = env_->sim->tracer()) {
        tracer->Instant(env_->id, TraceLane::kMigration,
                        "migrate:rimas-arrived", pending.rimas_arrived,
                        {{"proc", Json(body.proc.value)}});
      }
      ArmPendingTimeout(body.proc, &pending);
      MaybeInsert(body.proc);
      return;
    }
    case MsgOp::kMigrateComplete: {
      const auto& body = msg.BodyAs<MigrateCompleteBody>();
      auto it = outbound_.find(body.proc.value);
      if (it == outbound_.end() || it->second.phase != Phase::kSent) {
        // A completion for a migration this side already aborted: the
        // context got through after all and the process now runs on both
        // sides. The abort judged the peer unreachable for good and it
        // wasn't — log loudly; resolving the split brain needs an epoch
        // protocol out of scope here (see DESIGN.md failure semantics).
        ACCENT_LOG(kError) << "stray completion for " << body.proc
                           << " — peer inserted after this side aborted";
        return;
      }
      Outbound sent = std::move(outbound_.extract(it).mapped());  // drops the rollback copy
      MigrationRecord& record = sent.record;
      record.core_arrived = body.core_arrived;
      record.rimas_arrived = body.rimas_arrived;
      record.insert_time = body.insert_time;
      record.resumed = body.resumed;

      if (Tracer* tracer = env_->sim->tracer()) {
        // The three phase spans tile the downtime exactly: excise (emitted
        // when the context left) ends at excise_done, transfer runs to the
        // start of insertion, insert runs to resumption — so their durations
        // sum to record.Downtime(). Tests hold this invariant.
        const SimTime insert_begin = record.resumed - record.insert_time;
        tracer->Complete(env_->id, TraceLane::kMigration, "migrate:transfer",
                         record.excise_done, insert_begin - record.excise_done,
                         {{"proc", Json(record.proc.value)},
                          {"core_arrived_us", Json(record.core_arrived.count())},
                          {"rimas_arrived_us",
                           Json(record.rimas_arrived.count())}});
        tracer->Complete(env_->id, TraceLane::kMigration, "migrate:insert",
                         insert_begin, record.insert_time,
                         {{"proc", Json(record.proc.value)}});
        tracer->Instant(env_->id, TraceLane::kMigration, "migrate:complete",
                        env_->sim->Now(),
                        {{"proc", Json(record.proc.value)},
                         {"downtime_us", Json(record.Downtime().count())}});
      }

      // The process runs at the destination; if this excise found a remote
      // chain origin, evacuate our cached backing now (section 2.2's "until
      // all references die out" shortened to "until the chain collapses").
      StartChainCollapse(body.proc);
      sent.done(record);
      return;
    }
    case MsgOp::kRebindIou: {
      // Destination side of a chain collapse: repoint the process's
      // stand-in segments from the evacuating intermediary at the origin.
      const auto& body = msg.BodyAs<RebindIouBody>();
      RebindAckBody ack;
      ack.proc = body.proc;
      ack.from = body.from;
      auto it = local_.find(body.proc.value);
      if (it != local_.end()) {
        ack.rebound = true;
        ack.segments_rebound = it->second->space()->RebindBackers(body.from, body.to);
        if (Tracer* tracer = env_->sim->tracer()) {
          tracer->Instant(env_->id, TraceLane::kMigration, "chain:rebound",
                          env_->sim->Now(),
                          {{"proc", Json(body.proc.value)},
                           {"segments", Json(ack.segments_rebound)},
                           {"to_segment", Json(body.to.segment.value)}});
        }
      }
      Message reply;
      reply.dest = body.reply_port;
      reply.op = MsgOp::kRebindAck;
      reply.traffic = TrafficKind::kControl;
      reply.inline_bytes = kRebindAckBodyBytes;
      reply.body = ack;
      Result<void> sent = env_->fabric->Send(env_->id, std::move(reply));
      ACCENT_CHECK(sent.ok()) << sent.error().message;
      return;
    }
    case MsgOp::kRebindAck: {
      // Intermediary side: the destination no longer references our cache
      // object — replace it with a forwarding stub and finish the collapse.
      const auto& body = msg.BodyAs<RebindAckBody>();
      auto it = chain_.find(body.proc.value);
      ACCENT_CHECK(it != chain_.end()) << " rebind ack for unknown chain " << body.proc;
      ChainState& state = it->second;
      --state.pending_rebinds;
      ++state.stats.rebinds_acked;
      state.stats.segments_rebound += body.segments_rebound;
      env_->netmsg->backer().RetireToStub(body.from.segment, state.origin);
      FinishCollapseIfDone(body.proc);
      return;
    }
    case MsgOp::kMigrateRequest: {
      const auto& body = msg.BodyAs<MigrateRequestBody>();
      auto it = local_.find(body.proc.value);
      ACCENT_CHECK(it != local_.end())
          << " migrate request for unknown local process " << body.proc;
      Migrate(it->second, body.dest_manager, body.strategy, [](const MigrationRecord&) {});
      return;
    }
    case MsgOp::kUser: {
      if (std::any_cast<PreCopyRoundBody>(&msg.body) != nullptr) {
        HandlePreCopyRound(std::move(msg));
        return;
      }
      if (const auto* ack = std::any_cast<PreCopyAckBody>(&msg.body)) {
        OnRoundAcked(*ack);
        return;
      }
      if (const auto* put_ack = std::any_cast<FsCheckpointPutAck>(&msg.body)) {
        if (Tracer* tracer = env_->sim->tracer()) {
          tracer->Instant(env_->id, TraceLane::kMigration, "ckpt:acked",
                          env_->sim->Now(),
                          {{"proc", Json(put_ack->proc.value)},
                           {"version", Json(put_ack->version)},
                           {"pages",
                            Json(static_cast<std::uint64_t>(put_ack->pages_stored))}});
        }
        return;
      }
      if (std::any_cast<FsCheckpointGetReply>(&msg.body) != nullptr) {
        HandleCheckpointReply(std::move(msg));
        return;
      }
      ACCENT_CHECK(false) << " manager received unrecognised user message";
      break;
    }
    default:
      ACCENT_CHECK(false) << " manager received unexpected " << MsgOpName(msg.op);
  }
}

void MigrationManager::HandlePreCopyRound(Message msg) {
  const auto& body = msg.BodyAs<PreCopyRoundBody>();
  PendingInsert& pending = pending_[body.proc.value];
  for (MemoryRegion& region : msg.regions) {
    if (region.mem_class != MemClass::kReal) {
      continue;
    }
    const PageIndex first = PageOf(region.base);
    for (PageIndex i = 0; i < region.page_count(); ++i) {
      pending.staged[first + i] = std::move(region.pages[i]);
    }
  }
  ArmStagingTimeout(body.proc, &pending);

  PreCopyAckBody ack;
  ack.proc = body.proc;
  ack.round = body.round;
  Message reply;
  reply.dest = body.reply_port;
  reply.op = MsgOp::kUser;
  reply.traffic = TrafficKind::kControl;
  reply.inline_bytes = 16;
  reply.body = ack;
  Result<void> sent = env_->fabric->Send(env_->id, std::move(reply));
  ACCENT_CHECK(sent.ok()) << sent.error().message;
}

void MigrationManager::MergeStagedPages(Message* rimas, std::map<PageIndex, PageRef> staging) {
  // Final-round RIMAS pages are fresher than staged ones.
  std::set<PageIndex> fresh;
  for (const MemoryRegion& region : rimas->regions) {
    if (region.mem_class != MemClass::kReal) {
      continue;
    }
    for (PageIndex i = 0; i < region.page_count(); ++i) {
      fresh.insert(PageOf(region.base) + i);
    }
  }

  auto cursor = staging.begin();
  while (cursor != staging.end()) {
    if (fresh.count(cursor->first) != 0) {
      ++cursor;
      continue;
    }
    // Collect a contiguous staged run.
    std::vector<PageRef> data;
    const PageIndex first = cursor->first;
    PageIndex expect = first;
    while (cursor != staging.end() && cursor->first == expect &&
           fresh.count(cursor->first) == 0) {
      data.push_back(std::move(cursor->second));
      ++cursor;
      ++expect;
    }
    rimas->regions.push_back(MemoryRegion::Data(PageBase(first), std::move(data)));
  }
}

void MigrationManager::CheckpointExcised(const ExciseResult& excised,
                                         const std::vector<PageIndex>& keep,
                                         MigrationRecord* record) {
  FsCheckpointPut put;
  put.request_id = record->proc.value;
  put.reply_port = port_;
  put.core = excised.core.BodyAs<CoreBody>();
  // Rights ride in the body as a manifest, NOT on Message.rights: the live
  // rights are in the Core message already in flight, and putting them on
  // the wire envelope would re-home the actual ports at the store.
  put.rights = excised.core.rights;
  // A restore must reproduce the private-page profile the destination had
  // at insert time, so the re-install set follows the strategy: full-image
  // strategies arrive all-physical, resident-set arrives with exactly the
  // resident pages physical, pure-IOU arrives fully lazy.
  switch (record->strategy) {
    case TransferStrategy::kPureIou:
      break;
    case TransferStrategy::kResidentSet:
      put.materialize = keep;  // the resident set, ascending
      break;
    case TransferStrategy::kPureCopy:
    case TransferStrategy::kPreCopy:
      put.materialize_all = true;
      break;
  }

  Message msg;
  msg.dest = checkpoint_store_;
  msg.op = MsgOp::kUser;
  msg.no_ious = true;  // the image must physically reach the store
  msg.traffic = TrafficKind::kBulkData;
  msg.inline_bytes = MigrationCostModel::CheckpointPutBytes(*env_->costs) +
                     static_cast<ByteCount>(put.rights.size()) * kPortRightBytes;
  msg.amap = excised.core.amap;
  msg.has_amap = true;
  msg.regions = excised.rimas.regions;  // PageRef shares, not byte copies
  msg.body = std::move(put);

  record->checkpointed = true;
  record->checkpoint_bytes = msg.WireSize(*env_->costs);
  ++checkpoints_sent_;
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "ckpt:put", env_->sim->Now(),
                    {{"proc", Json(record->proc.value)},
                     {"strategy", Json(StrategyName(record->strategy))},
                     {"bytes", Json(record->checkpoint_bytes)}});
  }
  // Fire-and-forget: the put is insurance, never on the migration's critical
  // path. The store's ack is observability only.
  Result<void> sent = env_->fabric->Send(env_->id, std::move(msg));
  if (!sent.ok()) {
    ACCENT_LOG(kInfo) << "checkpoint put undeliverable: " << sent.error().message;
  }
}

void MigrationManager::InstallRestoreFaultHook(Process* proc) {
  if (!checkpoint_store_.valid() || !failure_handling_enabled()) {
    return;
  }
  proc->set_on_fault([this](Process* p, const AccessOutcome& outcome) {
    // Only a dead-backer fetch failure is survivable by re-incarnation;
    // an addressing error is the process's own bug and stays terminal.
    if (!outcome.failed || outcome.fault == FaultKind::kAddressError) {
      return;
    }
    RequestRestore(p);
  });
}

void MigrationManager::RequestRestore(Process* proc) {
  if (!checkpoint_store_.valid()) {
    return;
  }
  const std::uint64_t key = proc->id().value;
  if (restore_pending_.count(key) != 0) {
    return;
  }
  restore_pending_.insert(key);
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "ckpt:restore-request",
                    env_->sim->Now(), {{"proc", Json(key)}});
  }

  FsCheckpointGet get;
  get.request_id = key;
  get.proc = proc->id();
  get.reply_port = port_;

  Message msg;
  msg.dest = checkpoint_store_;
  msg.op = MsgOp::kUser;
  msg.traffic = TrafficKind::kControl;
  msg.inline_bytes = MigrationCostModel::CheckpointGetBytes(*env_->costs);
  msg.body = get;
  Result<void> sent = env_->fabric->Send(env_->id, std::move(msg));
  if (!sent.ok()) {
    restore_pending_.erase(key);
    ACCENT_LOG(kInfo) << "restore request undeliverable: " << sent.error().message;
  }
}

void MigrationManager::HandleCheckpointReply(Message msg) {
  const auto& reply = msg.BodyAs<FsCheckpointGetReply>();
  restore_pending_.erase(reply.proc.value);
  if (!reply.found) {
    ACCENT_LOG(kInfo) << "no checkpoint for " << reply.proc << "; fault stays terminal";
    return;
  }
  auto prior = restored_version_.find(reply.proc.value);
  if (prior != restored_version_.end() && prior->second >= reply.version) {
    // Already restored from this image once; faulting again means the
    // failure is in an inherited backer the store cannot replace. Leave the
    // process in kFaulted rather than loop.
    ACCENT_LOG(kInfo) << "process " << reply.proc << " already restored at v"
                      << prior->second << "; leaving it faulted";
    return;
  }
  restored_version_[reply.proc.value] = reply.version;

  // Re-synthesize the two context messages InsertProcess expects from the
  // store's image: the Core (context + AMap + rights) and the RIMAS (the
  // materialize regions, the whole-space store IOU, inherited debt).
  Message core;
  core.op = MsgOp::kMigrateCore;
  core.traffic = TrafficKind::kCoreContext;
  core.inline_bytes = env_->costs->core_context_bytes;
  core.body = reply.core;
  core.rights = reply.rights;
  core.amap = std::move(msg.amap);
  core.has_amap = true;

  Message rimas;
  rimas.op = MsgOp::kMigrateRimas;
  rimas.traffic = TrafficKind::kBulkData;
  rimas.inline_bytes = 32;
  rimas.body = RimasBody{reply.proc};
  rimas.regions = std::move(msg.regions);

  const std::uint64_t version = reply.version;
  InsertProcess(env_, std::move(core), std::move(rimas),
                [this, version](std::unique_ptr<Process> process, InsertResult result) {
                  // The faulted husk stays in adopted_ (excised husks do
                  // too); Adopt's RegisterLocal repoints the live entry at
                  // the new incarnation.
                  Process* raw = Adopt(std::move(process));
                  ++restores_completed_;
                  if (Tracer* tracer = env_->sim->tracer()) {
                    tracer->Instant(env_->id, TraceLane::kMigration, "ckpt:restored",
                                    env_->sim->Now(),
                                    {{"proc", Json(raw->id().value)},
                                     {"version", Json(version)},
                                     {"insert_us", Json(result.insert_time.count())}});
                  }
                  if (on_insert_ != nullptr) {
                    on_insert_(raw);
                  }
                });
}

void MigrationManager::MaybeInsert(ProcId proc) {
  auto it = pending_.find(proc.value);
  ACCENT_CHECK(it != pending_.end());
  if (!it->second.have_core || !it->second.have_rimas) {
    return;
  }
  PendingInsert pending = std::move(it->second);
  pending_.erase(it);
  if (pending.rimas.BodyAs<RimasBody>().precopy_flash) {
    MergeStagedPages(&pending.rimas, std::move(pending.staged));
  }

  InsertProcess(env_, std::move(pending.core), std::move(pending.rimas),
                [this, pending_core_arrived = pending.core_arrived,
                 pending_rimas_arrived = pending.rimas_arrived,
                 reply_port = pending.reply_port](std::unique_ptr<Process> process,
                                                  InsertResult result) {
                  Process* raw = Adopt(std::move(process));

                  MigrateCompleteBody body;
                  body.proc = raw->id();
                  body.core_arrived = pending_core_arrived;
                  body.rimas_arrived = pending_rimas_arrived;
                  body.insert_time = result.insert_time;
                  body.resumed = env_->sim->Now();

                  if (Tracer* tracer = env_->sim->tracer()) {
                    tracer->Instant(
                        env_->id, TraceLane::kMigration, "migrate:resumed",
                        body.resumed,
                        {{"proc", Json(body.proc.value)},
                         {"insert_us", Json(result.insert_time.count())}});
                  }

                  Message complete;
                  complete.dest = reply_port;
                  complete.op = MsgOp::kMigrateComplete;
                  complete.traffic = TrafficKind::kControl;
                  complete.inline_bytes = 64;
                  complete.body = body;
                  Result<void> sent = env_->fabric->Send(env_->id, std::move(complete));
                  ACCENT_CHECK(sent.ok()) << sent.error().message;

                  if (on_insert_ != nullptr) {
                    on_insert_(raw);
                  }
                });
}

}  // namespace accent
