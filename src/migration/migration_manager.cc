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

std::unique_ptr<Process> MigrationManager::ReleaseAdopted(ProcId proc) {
  auto it = std::find_if(adopted_.begin(), adopted_.end(),
                         [proc](const std::unique_ptr<Process>& p) { return p->id() == proc; });
  ACCENT_EXPECTS(it != adopted_.end()) << " process " << proc << " was not adopted here";
  std::unique_ptr<Process> released = std::move(*it);
  adopted_.erase(it);
  return released;
}

void MigrationManager::ApplyStrategy(Message* rimas, TransferStrategy strategy,
                                     const std::vector<PageIndex>& resident_pages,
                                     ByteCount zero_bytes, MigrationRecord* record) {
  switch (strategy) {
    case TransferStrategy::kPureCopy:
      // Guarantee physical delivery of every RealMem page (section 2.4).
      rimas->no_ious = true;
      return;
    case TransferStrategy::kPureIou:
      // Let the intermediary NetMsgServer cache the data and substitute
      // IOUs on its own initiative (section 3.2).
      rimas->no_ious = false;
      return;
    case TransferStrategy::kResidentSet:
      break;
    case TransferStrategy::kPreCopy:
      // Pre-copy never reaches here: Migrate dispatches it to the round
      // loop, which builds its own dirty-only RIMAS at freeze time.
      ACCENT_CHECK(false) << " pre-copy does not route through ApplyStrategy";
      return;
  }

  // Resident-set: keep resident pages as physical data, hand everything
  // else to the local NetMsgServer as a single VA-indexed backed object.
  const std::set<PageIndex> resident(resident_pages.begin(), resident_pages.end());
  std::vector<MemoryRegion> kept;
  std::vector<std::pair<PageIndex, PageRef>> owed;
  Addr owed_lo = kAddressSpaceLimit;
  Addr owed_hi = 0;

  for (MemoryRegion& region : rimas->regions) {
    if (region.mem_class != MemClass::kReal) {
      kept.push_back(std::move(region));
      continue;
    }
    const PageIndex first = PageOf(region.base);
    PageIndex i = 0;
    while (i < region.page_count()) {
      if (resident.count(first + i) != 0) {
        // Collect a resident run.
        std::vector<PageRef> pages;
        const PageIndex run_start = i;
        while (i < region.page_count() && resident.count(first + i) != 0) {
          pages.push_back(std::move(region.pages[i]));
          ++i;
        }
        kept.push_back(MemoryRegion::Data(region.base + run_start * kPageSize, std::move(pages)));
        continue;
      }
      owed_lo = std::min(owed_lo, region.base + i * kPageSize);
      owed_hi = std::max(owed_hi, region.base + (i + 1) * kPageSize);
      owed.emplace_back(first + i, std::move(region.pages[i]));
      ++i;
    }
  }

  if (!owed.empty()) {
    std::vector<PageHashEntry> rider = env_->netmsg->PublishIouPages(owed, owed_lo);
    IouRef iou =
        env_->netmsg->AdoptPages(std::move(owed), "rs-owed:" + record->name, record->proc);
    // The backed object is VA-indexed; the region offset convention is
    // relative to the region base, so anchor it there.
    iou.offset = owed_lo;
    MemoryRegion iou_region = MemoryRegion::Iou(owed_lo, owed_hi - owed_lo, iou);
    iou_region.page_hashes = std::move(rider);
    kept.push_back(std::move(iou_region));
  }
  rimas->regions = std::move(kept);
  rimas->no_ious = true;  // what remains physical must stay physical
  for (const MemoryRegion& region : rimas->regions) {
    if (region.mem_class == MemClass::kReal) {
      record->resident_bytes_shipped += region.size;
    }
  }
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

  if (strategy == TransferStrategy::kPreCopy) {
    MigratePreCopy(proc, dest_manager, precopy_config_, std::move(done));
    return;
  }

  MigrationRecord record;
  record.proc = proc->id();
  record.name = proc->name();
  record.strategy = strategy;
  record.requested = env_->sim->Now();
  outbound_[proc->id().value] = record;
  done_[proc->id().value] = std::move(done);
  ArmAbortTimer(proc->id());

  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "migrate:request",
                    record.requested,
                    {{"proc", Json(record.proc.value)},
                     {"workload", Json(record.name)},
                     {"strategy", Json(StrategyName(strategy))},
                     {"dest_manager", Json(dest_manager.value)}});
  }

  proc->RequestSuspend([this, proc, dest_manager, strategy]() {
    // Sample the resident set and the zero-fill footprint now: excision
    // destroys residency and takes the space away.
    std::vector<PageIndex> resident = env_->memory->PagesOf(proc->space()->id());
    const ByteCount zero_bytes = proc->space()->RealZeroBytes();

    ExciseProcess(proc, [this, proc, dest_manager, strategy, zero_bytes,
                         resident = std::move(resident)](ExciseResult excised) {
      MigrationRecord& rec = outbound_.at(proc->id().value);
      rec.excise_amap = excised.amap_time;
      rec.excise_rimas = excised.rimas_time;
      rec.excise_overall = excised.overall_time;
      rec.excise_done = env_->sim->Now();

      if (checkpoint_store_.valid()) {
        // Checkpoint the pre-strategy image: ApplyStrategy moves owed pages
        // out of these regions, so the durable copy must be cut first.
        CheckpointExcised(proc->id(), excised, resident, strategy);
      }
      ApplyStrategy(&excised.rimas, strategy, resident, zero_bytes, &rec);
      RecordChainOrigin(proc->id(), dest_manager, excised.rimas);

      SendExcisedContext(proc->id(), dest_manager, std::move(excised));
    });
  });
}

void MigrationManager::ArmAbortTimer(ProcId proc) {
  if (!failure_handling_enabled()) {
    return;
  }
  // The requested timestamp identifies this attempt: a later re-migration
  // of the same (rolled-back) process must not be killed by a stale timer.
  const SimTime attempt = outbound_.at(proc.value).requested;
  env_->sim->ScheduleAfter(env_->costs->migration_abort_timeout, [this, proc, attempt]() {
    auto it = outbound_.find(proc.value);
    if (it != outbound_.end() && it->second.requested == attempt) {
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
    staged_.erase(proc.value);
  });
}

void MigrationManager::AbortMigration(ProcId proc, const std::string& reason) {
  auto record_it = outbound_.find(proc.value);
  if (record_it == outbound_.end()) {
    return;  // already completed or aborted
  }
  MigrationRecord record = record_it->second;
  record.aborted = true;
  record.aborted_at = env_->sim->Now();
  record.abort_reason = reason;
  outbound_.erase(record_it);
  precopy_ack_waiters_.erase(proc.value);
  precopy_progress_.erase(proc.value);
  // An aborted re-migration never collapses: the rollback reinstates the
  // process here and this host legitimately remains its backer.
  chain_.erase(proc.value);
  ACCENT_LOG(kInfo) << "aborting migration of " << proc << ": " << reason;
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "migrate:abort",
                    record.aborted_at,
                    {{"proc", Json(proc.value)}, {"reason", Json(reason)}});
  }

  MigrateDone done;
  auto done_it = done_.find(proc.value);
  if (done_it != done_.end()) {
    done = std::move(done_it->second);
    done_.erase(done_it);
  }

  auto context_it = outbound_context_.find(proc.value);
  if (context_it == outbound_context_.end()) {
    // Not yet excised (e.g. a pre-copy round failed before the freeze):
    // the process never stopped running here. Nothing to restore, but a
    // pre-copy attempt leaves tracking armed — disarm it.
    auto local_it = local_.find(proc.value);
    if (local_it != local_.end() && local_it->second->space() != nullptr) {
      local_it->second->space()->DisarmWriteTracking();
    }
    record.rolled_back = true;
    if (done != nullptr) {
      done(record);
    }
    return;
  }

  // Source-side rollback: the authoritative context copies were retained
  // until the handshake, so InsertProcess can rebuild the process exactly
  // as it was excised — resident-set/IOU strategies left the owed pages in
  // the *local* NetMsgServer cache, which keeps serving them here.
  OutboundContext context = std::move(context_it->second);
  outbound_context_.erase(context_it);
  InsertProcess(env_, std::move(context.core), std::move(context.rimas),
                [this, record, done = std::move(done)](std::unique_ptr<Process> process,
                                                       InsertResult result) mutable {
                  Process* raw = process.get();
                  adopted_.push_back(std::move(process));
                  RegisterLocal(raw);
                  InstallRestoreFaultHook(raw);
                  raw->Start();
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
                  if (done != nullptr) {
                    done(record);
                  }
                });
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

void MigrationManager::SendExcisedContext(ProcId proc, PortId dest_manager,
                                          ExciseResult excised) {
  // The RIMAS message goes first so lazy transfers aren't queued behind the
  // Core/AMap stream; its manager handling is charged up front and is the
  // floor of Table 4-5's ~0.16 s pure-IOU transfers. The heavier
  // per-migration control work is charged at the destination manager
  // (command processing around the Core message, §4.3.2's ~1 s).
  {
    // The excise phase span: downtime start (freeze for pre-copy, request
    // otherwise) to the ExciseProcess trap returning.
    MigrationRecord& record = outbound_.at(proc.value);
    if (Tracer* tracer = env_->sim->tracer()) {
      const SimTime phase_start =
          record.frozen > SimTime{0} ? record.frozen : record.requested;
      tracer->Complete(env_->id, TraceLane::kMigration, "migrate:excise",
                       phase_start, record.excise_done - phase_start,
                       {{"proc", Json(record.proc.value)},
                        {"amap_us", Json(record.excise_amap.count())},
                        {"rimas_us", Json(record.excise_rimas.count())}});
    }
  }
  outbound_.at(proc.value).rimas_sent = env_->sim->Now();
  // Tag the RIMAS with its process so any cache objects the NetMsgServer
  // path adopts en route (IOU substitution) are recorded against it — the
  // handle a later chain collapse evacuates them by. Metadata only.
  excised.rimas.cache_owner = proc;
  if (failure_handling_enabled()) {
    // Keep the authoritative copy until the transfer-complete handshake:
    // rollback re-inserts these exact messages. Deep copies (page data and
    // all) — made only on fault-injection testbeds. try_emplace: pre-copy
    // already stored its full-image context before the dirty filter, and the
    // filtered flash RIMAS on the wire is not a valid rollback image.
    outbound_context_.try_emplace(proc.value,
                                  OutboundContext{excised.core, excised.rimas});
  }
  const SimDuration rimas_handling = env_->costs->migration_rimas_handling +
                                     outbound_.at(proc.value).rs_packaging_extra;
  env_->cpu->Submit(CpuWork::kMigration, rimas_handling,
                    [this, proc, dest_manager, excised = std::move(excised)]() mutable {
    MigrationRecord& rec = outbound_.at(proc.value);
    excised.rimas.dest = dest_manager;
    excised.rimas.reply_port = port_;
    Result<void> rimas_sent = env_->fabric->Send(env_->id, std::move(excised.rimas));
    ACCENT_CHECK(rimas_sent.ok()) << rimas_sent.error().message;

    excised.core.dest = dest_manager;
    excised.core.reply_port = port_;
    rec.core_sent = env_->sim->Now();
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

void MigrationManager::MigratePreCopy(Process* proc, PortId dest_manager,
                                      const PreCopyConfig& config, MigrateDone done) {
  ACCENT_EXPECTS(proc != nullptr && done != nullptr);
  ACCENT_EXPECTS(proc->env() == env_) << " process is not on this manager's host";
  ACCENT_EXPECTS(config.max_rounds >= 1);

  MigrationRecord record;
  record.proc = proc->id();
  record.name = proc->name();
  record.strategy = TransferStrategy::kPreCopy;
  record.requested = env_->sim->Now();
  outbound_[proc->id().value] = record;
  done_[proc->id().value] = std::move(done);
  ArmAbortTimer(proc->id());

  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "migrate:request",
                    record.requested,
                    {{"proc", Json(record.proc.value)},
                     {"workload", Json(record.name)},
                     {"strategy", Json(StrategyName(record.strategy))},
                     {"dest_manager", Json(dest_manager.value)},
                     {"max_rounds", Json(config.max_rounds)},
                     {"target_downtime_us", Json(config.target_downtime.count())}});
  }

  precopy_progress_[proc->id().value] = PreCopyProgress{};
  proc->space()->MarkAllClean();
  proc->space()->ArmWriteTracking();
  RunPreCopyRound(proc, dest_manager, config, 0);
}

void MigrationManager::RunPreCopyRound(Process* proc, PortId dest_manager,
                                       PreCopyConfig config, int round) {
  AddressSpace* space = proc->space();
  // Round 0 snapshots everything; later rounds re-ship what was dirtied
  // while the previous round was in flight.
  const std::vector<PageIndex> pages = round == 0 ? space->RealPages() : space->DirtyPages();
  space->MarkAllClean();

  MigrationRecord& record = outbound_.at(proc->id().value);
  ++record.precopy_rounds;

  PreCopyRoundBody body;
  body.proc = proc->id();
  body.round = round;
  body.reply_port = port_;

  Message msg;
  msg.dest = dest_manager;
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
  const std::size_t shipped_pages = pages.size();
  const SimTime round_start = env_->sim->Now();

  // Continue when the receiver acknowledges this round (flow control: the
  // V system's network overruns came from the lack of exactly this).
  precopy_ack_waiters_[proc->id().value] = [this, proc, dest_manager, config, round,
                                            shipped_pages, round_start]() {
    if (proc->done() || proc->faulted()) {
      // The process ran to completion (or died) at the source while the
      // round was in flight; there is nothing left worth freezing.
      AbortMigration(proc->id(), "process terminated before pre-copy freeze");
      return;
    }
    const std::size_t dirty = proc->space()->dirty_count();
    PreCopyProgress& progress = precopy_progress_[proc->id().value];
    // Writable working set: an EWMA over per-round dirty counts. Recent
    // rounds dominate, so a phase change (a Lisp GC kicking in, a scan
    // wrapping around) re-steers the estimate within a round or two.
    progress.wws_pages = round == 0
                             ? static_cast<double>(dirty)
                             : 0.5 * progress.wws_pages + 0.5 * static_cast<double>(dirty);

    MigrationRecord& rec = outbound_.at(proc->id().value);
    rec.precopy_wws_pages = progress.wws_pages;

    if (Tracer* tracer = env_->sim->tracer()) {
      // Rounds are strictly sequential (ack flow control) and each next
      // round starts at the instant the previous ack lands, so these spans
      // tile the live-transfer phase exactly (docs/OBSERVABILITY.md).
      tracer->Complete(env_->id, TraceLane::kMigration, "precopy:round",
                       round_start, env_->sim->Now() - round_start,
                       {{"round", Json(round)},
                        {"pages", Json(static_cast<std::uint64_t>(shipped_pages))},
                        {"dirty_at_ack", Json(static_cast<std::uint64_t>(dirty))},
                        {"wws_pages", Json(progress.wws_pages)}});
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
      stagnated = round > 0 && dirty >= progress.prev_dirty;
    }
    progress.prev_dirty = dirty;

    if (out_of_rounds || converged || slo_met || stagnated) {
      FreezeAndFinishPreCopy(proc, dest_manager);
      return;
    }
    RunPreCopyRound(proc, dest_manager, config, round + 1);
  };

  // Round handling: dirty-bitmap harvest + run construction on top of the
  // RIMAS-style descriptor work.
  env_->cpu->Submit(CpuWork::kMigration,
                    env_->costs->migration_rimas_handling + env_->costs->precopy_round_control,
                    [this, msg = std::move(msg)]() mutable {
                      Result<void> sent = env_->fabric->Send(env_->id, std::move(msg));
                      ACCENT_CHECK(sent.ok()) << sent.error().message;
                    });
}

void MigrationManager::FreezeAndFinishPreCopy(Process* proc, PortId dest_manager) {
  proc->RequestSuspend([this, proc, dest_manager]() {
    MigrationRecord& record = outbound_.at(proc->id().value);
    record.frozen = env_->sim->Now();
    proc->space()->DisarmWriteTracking();  // the excise harvests the final set
    precopy_progress_.erase(proc->id().value);
    if (Tracer* tracer = env_->sim->tracer()) {
      tracer->Instant(env_->id, TraceLane::kMigration, "precopy:frozen",
                      record.frozen,
                      {{"proc", Json(proc->id().value)},
                       {"rounds", Json(record.precopy_rounds)},
                       {"dirty_pages",
                        Json(static_cast<std::uint64_t>(proc->space()->dirty_count()))}});
    }
    // Pages dirtied since the last acknowledged round must travel in the
    // RIMAS; everything else is already staged at the destination.
    const std::vector<PageIndex> dirty_list = proc->space()->DirtyPages();
    const std::set<PageIndex> dirty(dirty_list.begin(), dirty_list.end());

    ExciseProcess(proc, [this, proc, dest_manager, dirty](ExciseResult excised) {
      MigrationRecord& rec = outbound_.at(proc->id().value);
      rec.excise_amap = excised.amap_time;
      rec.excise_rimas = excised.rimas_time;
      rec.excise_overall = excised.overall_time;
      rec.excise_done = env_->sim->Now();

      if (checkpoint_store_.valid()) {
        // Full image: the dirty filter below strips staged pages from the
        // wire message, but the durable copy must stand alone.
        CheckpointExcised(proc->id(), excised, {}, TransferStrategy::kPreCopy);
      }

      if (failure_handling_enabled()) {
        // A destination crash rolls the process back by re-inserting this
        // context locally, so it must hold the complete image — the staged
        // clean pages live at the (now dead) destination, not here. Stored
        // before the dirty filter strips them from the wire message.
        outbound_context_[proc->id().value] =
            OutboundContext{excised.core, excised.rimas};
      }

      // Keep only dirty pages in the Data regions; clean pages are staged.
      std::vector<MemoryRegion> kept;
      for (MemoryRegion& region : excised.rimas.regions) {
        if (region.mem_class != MemClass::kReal) {
          kept.push_back(std::move(region));
          continue;
        }
        const PageIndex first = PageOf(region.base);
        PageIndex i = 0;
        while (i < region.page_count()) {
          if (dirty.count(first + i) == 0) {
            ++i;
            continue;
          }
          const PageIndex run_start = i;
          std::vector<PageRef> data;
          while (i < region.page_count() && dirty.count(first + i) != 0) {
            data.push_back(std::move(region.pages[i]));
            ++i;
          }
          kept.push_back(
              MemoryRegion::Data(region.base + run_start * kPageSize, std::move(data)));
        }
      }
      excised.rimas.regions = std::move(kept);
      excised.rimas.no_ious = true;
      for (const MemoryRegion& region : excised.rimas.regions) {
        if (region.mem_class == MemClass::kReal) {
          rec.precopy_flash_bytes += region.size;
        }
      }
      RecordChainOrigin(proc->id(), dest_manager, excised.rimas);

      SendExcisedContext(proc->id(), dest_manager, std::move(excised));
    });
  });
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
      auto record_it = outbound_.find(body.proc.value);
      if (record_it == outbound_.end()) {
        // A completion for a migration this side already aborted: the
        // context got through after all and the process now runs on both
        // sides. The abort judged the peer unreachable for good and it
        // wasn't — log loudly; resolving the split brain needs an epoch
        // protocol out of scope here (see DESIGN.md failure semantics).
        ACCENT_LOG(kError) << "stray completion for " << body.proc
                           << " — peer inserted after this side aborted";
        return;
      }
      MigrationRecord record = record_it->second;
      record.core_arrived = body.core_arrived;
      record.rimas_arrived = body.rimas_arrived;
      record.insert_time = body.insert_time;
      record.resumed = body.resumed;
      outbound_.erase(record_it);
      outbound_context_.erase(body.proc.value);  // handshake done; drop the copy

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

      auto done_it = done_.find(body.proc.value);
      ACCENT_CHECK(done_it != done_.end());
      MigrateDone done = std::move(done_it->second);
      done_.erase(done_it);
      // The process runs at the destination; if this excise found a remote
      // chain origin, evacuate our cached backing now (section 2.2's "until
      // all references die out" shortened to "until the chain collapses").
      StartChainCollapse(body.proc);
      done(record);
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
        auto it = precopy_ack_waiters_.find(ack->proc.value);
        ACCENT_CHECK(it != precopy_ack_waiters_.end()) << " stray pre-copy ack";
        auto waiter = std::move(it->second);
        precopy_ack_waiters_.erase(it);
        waiter();
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
  std::map<PageIndex, PageRef>& staging = staged_[body.proc.value];
  for (MemoryRegion& region : msg.regions) {
    if (region.mem_class != MemClass::kReal) {
      continue;
    }
    const PageIndex first = PageOf(region.base);
    for (PageIndex i = 0; i < region.page_count(); ++i) {
      staging[first + i] = std::move(region.pages[i]);
    }
  }

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

void MigrationManager::MergeStagedPages(Message* rimas, ProcId proc) {
  auto it = staged_.find(proc.value);
  if (it == staged_.end()) {
    return;
  }
  std::map<PageIndex, PageRef> staging = std::move(it->second);
  staged_.erase(it);

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

void MigrationManager::CheckpointExcised(ProcId proc, const ExciseResult& excised,
                                         const std::vector<PageIndex>& resident,
                                         TransferStrategy strategy) {
  FsCheckpointPut put;
  put.request_id = proc.value;
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
  switch (strategy) {
    case TransferStrategy::kPureIou:
      break;
    case TransferStrategy::kResidentSet:
      put.materialize = resident;
      std::sort(put.materialize.begin(), put.materialize.end());
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

  MigrationRecord& rec = outbound_.at(proc.value);
  rec.checkpointed = true;
  rec.checkpoint_bytes = msg.WireSize(*env_->costs);
  ++checkpoints_sent_;
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "ckpt:put", env_->sim->Now(),
                    {{"proc", Json(proc.value)},
                     {"strategy", Json(StrategyName(strategy))},
                     {"bytes", Json(rec.checkpoint_bytes)}});
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
  ++restores_requested_;
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
                  Process* raw = process.get();
                  // The faulted husk stays in adopted_ (excised husks do
                  // too); RegisterLocal repoints the live entry at the new
                  // incarnation.
                  adopted_.push_back(std::move(process));
                  RegisterLocal(raw);
                  InstallRestoreFaultHook(raw);
                  raw->Start();
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
  MergeStagedPages(&pending.rimas, proc);

  InsertProcess(env_, std::move(pending.core), std::move(pending.rimas),
                [this, pending_core_arrived = pending.core_arrived,
                 pending_rimas_arrived = pending.rimas_arrived,
                 reply_port = pending.reply_port](std::unique_ptr<Process> process,
                                                  InsertResult result) {
                  Process* raw = process.get();
                  adopted_.push_back(std::move(process));
                  RegisterLocal(raw);
                  InstallRestoreFaultHook(raw);
                  raw->Start();

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
