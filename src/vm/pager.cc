#include "src/vm/pager.h"

#include <utility>

#include "src/base/logging.h"
#include "src/net/page_service.h"
#include "src/vm/imag_protocol.h"

namespace accent {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kFillZero:
      return "fillzero";
    case FaultKind::kDisk:
      return "disk";
    case FaultKind::kCopyOnWrite:
      return "cow";
    case FaultKind::kImaginary:
      return "imaginary";
    case FaultKind::kAddressError:
      return "address-error";
  }
  return "?";
}

Pager::Pager(HostId host, Simulator* sim, const CostTable* costs, IpcFabric* fabric, Disk* disk,
             PhysicalMemory* memory)
    : host_(host), sim_(*sim), costs_(*costs), fabric_(*fabric), disk_(*disk), memory_(*memory) {
  ACCENT_EXPECTS(sim != nullptr && costs != nullptr && fabric != nullptr && disk != nullptr &&
                 memory != nullptr);
}

void Pager::Start() {
  ACCENT_EXPECTS(!port_.valid()) << " pager started twice";
  port_ = fabric_.AllocatePort(host_, this, "pager");
}

void Pager::MakeResident(AddressSpace* space, PageIndex page, bool dirty) {
  auto eviction = memory_.Insert(space->id(), page, dirty);
  if (eviction.has_value() && eviction->dirty) {
    ++stats_.pageouts;
    // Page-out to the local disk; contents already live in the private
    // store, so only the timing is charged. Nothing waits on it.
    disk_.Write(1, nullptr);
  }
}

SimDuration Pager::ResolveWriteCopy(AddressSpace* space, PageIndex page,
                                    AccessOutcome* outcome) {
  if (!space->NeedsCopyOnWrite(page)) {
    if (!space->HasPrivatePage(page)) {
      // Zero-fill or already-real page with no origin segment: own it now
      // (a shared reference; the first diverging write clones it).
      space->InstallPage(page, space->ReadPage(page));
    }
    return SimDuration::zero();
  }
  // First write to a shared segment page: the deferred copy (section 2.1)
  // is carried out for just this 512-byte page. The simulated cost is
  // charged here; physically the segment's payload is only referenced, and
  // PageRef clones it lazily when the write lands.
  ++stats_.cow_faults;
  outcome->fault = outcome->fault == FaultKind::kNone ? FaultKind::kCopyOnWrite : outcome->fault;
  space->InstallPage(page, space->ReadPage(page));
  return costs_.cow_fault;
}

void Pager::Access(AddressSpace* space, Addr addr, bool write, AccessDone done) {
  ACCENT_EXPECTS(space != nullptr && done != nullptr);
  // Tracing wraps the completion so the span covers the whole fault service
  // (request, wire round-trips, installation). Resident hits emit nothing;
  // the wrapper only observes, so simulated behaviour is unchanged.
  if (Tracer* tracer = sim_.tracer()) {
    done = [this, tracer, write, start = sim_.Now(),
            done = std::move(done)](const AccessOutcome& outcome) {
      if (outcome.fault != FaultKind::kNone) {
        tracer->Complete(host_, TraceLane::kPager,
                         std::string("pager:") + FaultKindName(outcome.fault),
                         start, sim_.Now() - start,
                         {{"page", Json(outcome.page)},
                          {"write", Json(write)},
                          {"failed", Json(outcome.failed)}});
      }
      done(outcome);
    };
  }
  const PageIndex page = PageOf(addr);
  const MemClass mem_class = space->ClassOf(addr);
  Cpu* cpu = fabric_.CpuOf(host_);
  if (mem_class == MemClass::kBad) {
    // A true addressing error: infinitely distant memory. The debugger is
    // invoked so the user can analyze and properly terminate the
    // delinquent process (section 2.3) — the access completes as failed.
    ++stats_.address_errors;
    ACCENT_LOG(kInfo) << "BadMem reference at addr " << addr << " — debugger invoked";
    AccessOutcome outcome;
    outcome.fault = FaultKind::kAddressError;
    outcome.page = page;
    outcome.failed = true;
    cpu->Submit(CpuWork::kKernel, costs_.pager_fillzero_fault,
                [outcome, done = std::move(done)]() { done(outcome); });
    return;
  }
  space->NoteTouched(page);

  // Fast path: resident.
  if (memory_.Touch(space->id(), page)) {
    AccessOutcome outcome;
    outcome.page = page;
    const auto key = std::make_pair(space->id().value, page);
    if (untouched_prefetched_.erase(key) != 0) {
      outcome.prefetch_hit = true;
      ++stats_.prefetch_hits;
    }
    ++stats_.resident_hits;
    SimDuration cost = costs_.resident_access;
    if (write) {
      if (space->WriteIsTracked(addr)) {
        // Pre-copy armed the write-protect bit on this clean, resident page:
        // the write takes one extra trap to set the dirty bit. Disarmed
        // spaces never reach here, keeping legacy timings byte-identical.
        space->NoteTrackedWriteFault();
        cost += costs_.precopy_write_fault;
      }
      cost += ResolveWriteCopy(space, page, &outcome);
      memory_.MarkDirty(space->id(), page);
    }
    const CpuWork category =
        outcome.fault == FaultKind::kCopyOnWrite ? CpuWork::kPager : CpuWork::kProcess;
    cpu->Submit(category, cost, [outcome, done = std::move(done)]() { done(outcome); });
    return;
  }

  switch (mem_class) {
    case MemClass::kRealZero: {
      // FillZero fault: reserve a frame, zero it, map it. No disk.
      ++stats_.fillzero_faults;
      AccessOutcome outcome;
      outcome.fault = FaultKind::kFillZero;
      outcome.page = page;
      space->InstallPage(page, PageRef{});  // interned zero page: no allocation
      MakeResident(space, page, /*dirty=*/true);
      cpu->Submit(CpuWork::kPager, costs_.pager_fillzero_fault,
                  [outcome, done = std::move(done)]() { done(outcome); });
      return;
    }
    case MemClass::kReal: {
      // Local disk fault: contents are in the private store or the origin
      // segment (both "local disk" for timing purposes). Write faults
      // resolve their private copy only after the page is resident.
      ++stats_.disk_faults;
      AccessOutcome outcome;
      outcome.fault = FaultKind::kDisk;
      outcome.page = page;
      cpu->Submit(CpuWork::kPager, costs_.pager_disk_fault_cpu,
                  [this, cpu, space, page, write, outcome, done = std::move(done)]() mutable {
        disk_.Read(1, [this, cpu, space, page, write, outcome,
                       done = std::move(done)]() mutable {
          MakeResident(space, page, /*dirty=*/write);
          SimDuration copy_cost = SimDuration::zero();
          if (write) {
            copy_cost = ResolveWriteCopy(space, page, &outcome);
            outcome.fault = FaultKind::kDisk;
          }
          cpu->Submit(CpuWork::kPager, copy_cost,
                      [outcome, done = std::move(done)]() { done(outcome); });
        });
      });
      return;
    }
    case MemClass::kImag:
      StartImaginaryFault(space, page, write, std::move(done));
      return;
    case MemClass::kBad:
      break;
  }
  ACCENT_CHECK(false) << " unreachable fault class";
}

void Pager::StartImaginaryFault(AddressSpace* space, PageIndex page, bool write,
                                AccessDone done) {
  const auto key = std::make_pair(space->id().value, page);
  auto in_flight = in_flight_pages_.find(key);
  if (in_flight != in_flight_pages_.end()) {
    // Another access already asked for this page: join its reply.
    pending_[in_flight->second].waiters.push_back(Waiter{page, write, std::move(done)});
    return;
  }

  ++stats_.imag_faults;
  const AddressSpace::ImagTarget target = space->ImagTargetOf(PageBase(page));
  const PageIndex run = space->ImagRunLength(page, 1 + prefetch_pages_);
  ACCENT_CHECK(run >= 1);

  const std::uint64_t request_id = next_request_id_++;
  PendingFetch fetch;
  fetch.space = space;
  fetch.target = target;
  for (PageIndex i = 0; i < run; ++i) {
    fetch.va_pages.push_back(page + i);
    in_flight_pages_[std::make_pair(space->id().value, page + i)] = request_id;
  }
  fetch.waiters.push_back(Waiter{page, write, std::move(done)});

  // Hash-probe fault walk (docs/INTERNALS.md §15): with a PageService wired
  // and every page of the run hinted, try the local cache (tier 1: a small
  // confirm replaces the payload) then the nearest directory holder
  // (tier 2) before the origin (tier 3, the classic pull). Any page
  // without a hint keeps the whole run on the classic path.
  if (page_service_ != nullptr) {
    std::vector<PageHash> hashes;
    hashes.reserve(run);
    for (PageIndex i = 0; i < run; ++i) {
      const PageHash* hint = space->HashHintOf(page + i);
      if (hint == nullptr) {
        break;
      }
      hashes.push_back(*hint);
    }
    if (static_cast<PageIndex>(hashes.size()) == run) {
      fetch.hashes = std::move(hashes);
      bool all_local = true;
      for (const PageHash& hash : fetch.hashes) {
        all_local = all_local && page_service_->cache().Contains(hash);
      }
      if (all_local) {
        for (const PageHash& hash : fetch.hashes) {
          const PageRef* hit = page_service_->cache().Lookup(hash);
          ACCENT_CHECK(hit != nullptr);
          fetch.cached_pages.push_back(*hit);  // refcount bump, no byte copy
        }
        fetch.tier = FetchTier::kLocalConfirm;
        ++stats_.cache_local_hits;
      } else {
        // Charge the miss to the first absent page (hit/miss counters feed
        // the bench), then ask the directory for the cheapest holder.
        for (const PageHash& hash : fetch.hashes) {
          if (!page_service_->cache().Contains(hash)) {
            page_service_->cache().Lookup(hash);
            break;
          }
        }
        const HostId origin = fabric_.HomeOf(target.iou.backing_port);
        auto holder = page_service_->directory().NearestHolder(fetch.hashes.front(),
                                                               sim_.Now(), host_, origin);
        if (holder.has_value() &&
            page_service_->directory().ServicePortOf(*holder).valid()) {
          fetch.tier = FetchTier::kHolderPull;
          fetch.holder = *holder;
        }
      }
      if (Tracer* tracer = sim_.tracer()) {
        tracer->Instant(host_, TraceLane::kPager,
                        fetch.tier == FetchTier::kLocalConfirm ? "cache:hit" : "cache:miss",
                        sim_.Now(), {{"page", Json(page)}, {"pages", Json(run)}});
      }
    }
  }

  pending_[request_id] = std::move(fetch);
  DispatchFetch(request_id);
}

void Pager::DispatchFetch(std::uint64_t request_id) {
  PendingFetch& fetch = pending_.at(request_id);
  ++fetch.attempt;
  const auto run = static_cast<std::uint32_t>(fetch.va_pages.size());

  ImagReadRequest request;
  request.request_id = request_id;
  request.segment = fetch.target.iou.segment;
  request.offset = fetch.target.backer_offset;
  request.page_count = run;
  request.reply_port = port_;

  Message msg;
  msg.reply_port = port_;
  msg.op = MsgOp::kImagReadRequest;
  msg.traffic = TrafficKind::kFaultData;
  SimDuration cpu_cost = costs_.pager_imag_fault_cpu;
  switch (fetch.tier) {
    case FetchTier::kOrigin:
      msg.dest = fetch.target.iou.backing_port;
      msg.inline_bytes = costs_.fault_request_bytes;
      break;
    case FetchTier::kLocalConfirm:
      msg.dest = fetch.target.iou.backing_port;
      msg.inline_bytes =
          costs_.fault_request_bytes + costs_.page_hash_bytes * static_cast<ByteCount>(run);
      request.probe = ImagProbeKind::kConfirm;
      request.page_hashes = fetch.hashes;
      cpu_cost += costs_.cache_lookup_cpu;
      break;
    case FetchTier::kHolderPull:
      msg.dest = page_service_->directory().ServicePortOf(fetch.holder);
      msg.inline_bytes =
          costs_.fault_request_bytes + costs_.page_hash_bytes * static_cast<ByteCount>(run);
      request.probe = ImagProbeKind::kCachePull;
      request.page_hashes = fetch.hashes;
      cpu_cost += costs_.cache_lookup_cpu;
      break;
  }
  msg.body = std::move(request);

  Cpu* cpu = fabric_.CpuOf(host_);
  cpu->Submit(CpuWork::kPager, cpu_cost, [this, request_id, msg = std::move(msg)]() mutable {
    Result<void> sent = fabric_.Send(host_, std::move(msg));
    if (!sent.ok()) {
      ACCENT_LOG(kError) << "imaginary read request failed: " << sent.error().message;
      FetchSetback(request_id, /*holder_miss=*/false);
    }
  });
  if (fetch_timeout_enabled_) {
    // Lossy-wire guard: a reply lost to a crashed peer (in either
    // direction) must not strand the faulting process. Dead-letter bounces
    // normally resolve the fetch first; this is the backstop. The attempt
    // guard keeps a timer armed for a probe from firing on its fallback.
    const std::uint64_t attempt = fetch.attempt;
    sim_.ScheduleAfter(costs_.pager_fetch_timeout, [this, request_id, attempt]() {
      auto it = pending_.find(request_id);
      if (it != pending_.end() && it->second.attempt == attempt) {
        ACCENT_LOG(kInfo) << "imaginary fetch " << request_id << " timed out";
        FetchSetback(request_id, /*holder_miss=*/false);
      }
    });
  }
}

void Pager::FetchSetback(std::uint64_t request_id, bool holder_miss) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;
  }
  PendingFetch& fetch = it->second;
  if (fetch.tier == FetchTier::kHolderPull) {
    // The probed holder no longer caches the bytes (miss) or is gone for
    // good (dead letter, timeout, dead port). Either way the origin still
    // owes the memory: drop a dead holder from the directory so nobody
    // probes it again, and fall back to the classic pull.
    if (holder_miss) {
      ++stats_.cache_holder_misses;
    } else {
      ++stats_.cache_holder_failovers;
      page_service_->directory().DropHost(fetch.holder);
    }
    fetch.tier = FetchTier::kOrigin;
    fetch.cached_pages.clear();
    DispatchFetch(request_id);
    return;
  }
  // kLocalConfirm setbacks fail exactly like the classic protocol: the
  // cached bytes may be right, but the origin no longer vouches for the
  // object (dead backer) — installing them would resurrect retired memory.
  FailPendingFetch(request_id);
}

void Pager::FailPendingFetch(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;
  }
  PendingFetch fetch = std::move(it->second);
  pending_.erase(it);
  ++stats_.failed_fetches;
  for (PageIndex page : fetch.va_pages) {
    in_flight_pages_.erase(std::make_pair(fetch.space->id().value, page));
  }
  for (Waiter& waiter : fetch.waiters) {
    AccessOutcome outcome;
    outcome.fault = FaultKind::kImaginary;
    outcome.page = waiter.page;
    outcome.failed = true;
    waiter.done(outcome);
  }
}

void Pager::HandleMessage(Message msg) {
  if (msg.op == MsgOp::kImagReadRequest) {
    // A peer pager's kCachePull probe (docs/INTERNALS.md §15).
    ServeCachePull(msg);
    return;
  }
  ACCENT_CHECK(msg.op == MsgOp::kImagReadReply)
      << " pager received unexpected " << MsgOpName(msg.op);
  const auto& reply = msg.BodyAs<ImagReadReply>();
  if (reply.failed) {
    // The request was dead-lettered: the peer is unreachable for good. A
    // holder probe falls back to the origin; anything else fails the fetch.
    FetchSetback(reply.request_id, /*holder_miss=*/false);
    return;
  }
  auto it = pending_.find(reply.request_id);
  if (it == pending_.end()) {
    ACCENT_LOG(kDebug) << "orphan imaginary read reply " << reply.request_id;
    return;
  }

  if (reply.cache_miss) {
    // The holder answered but no longer caches the bytes: origin fallback.
    FetchSetback(reply.request_id, /*holder_miss=*/true);
    return;
  }

  if (reply.hash_confirmed) {
    // Confirm ack: the origin vouched for ownership and content identity,
    // so the locally-cached payloads may be installed. No page bytes
    // crossed the wire — only cache_confirm_bytes of ack.
    PendingFetch fetch = std::move(it->second);
    pending_.erase(it);
    ACCENT_CHECK(fetch.tier == FetchTier::kLocalConfirm &&
                 fetch.cached_pages.size() == fetch.va_pages.size())
        << " confirm ack for a fetch that never probed";
    const std::vector<PageRef> pages = std::move(fetch.cached_pages);
    CompleteFetch(std::move(fetch), pages, /*payload_fetched=*/false);
    return;
  }

  ACCENT_CHECK(msg.regions.size() == 1 && msg.regions[0].mem_class == MemClass::kReal)
      << " malformed imaginary read reply";
  const std::vector<PageRef>& pages = msg.regions[0].pages;

  if (it->second.tier == FetchTier::kHolderPull) {
    // Holder payloads are not authoritative: re-verify every page against
    // the requested hash before installing. A divergent holder is dropped
    // and the fetch falls back to the origin — stale caches can delay a
    // pull, never corrupt one.
    const PendingFetch& probe = it->second;
    bool verified = pages.size() == probe.hashes.size();
    for (std::size_t i = 0; verified && i < pages.size(); ++i) {
      verified = pages[i].Hash() == probe.hashes[i];
    }
    if (!verified) {
      ++stats_.cache_hash_rejects;
      FetchSetback(reply.request_id, /*holder_miss=*/false);
      return;
    }
    stats_.cache_pages_from_holders += pages.size();
  }

  PendingFetch fetch = std::move(it->second);
  pending_.erase(it);
  ACCENT_CHECK(pages.size() <= fetch.va_pages.size());
  CompleteFetch(std::move(fetch), pages, /*payload_fetched=*/true);
}

void Pager::CompleteFetch(PendingFetch fetch, const std::vector<PageRef>& pages,
                          bool payload_fetched) {
  AddressSpace* space = fetch.space;
  for (std::size_t i = 0; i < fetch.va_pages.size(); ++i) {
    in_flight_pages_.erase(std::make_pair(space->id().value, fetch.va_pages[i]));
  }

  SimDuration install_cost = SimDuration::zero();
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const PageIndex va_page = fetch.va_pages[i];
    space->InstallPage(va_page, pages[i]);
    // Fetched imaginary pages have no disk image yet: dirty so that
    // eviction pages them out locally.
    MakeResident(space, va_page, /*dirty=*/true);
    if (payload_fetched) {
      ++stats_.imag_pages_fetched;
    } else {
      ++stats_.cache_pages_confirmed;
    }
    if (i > 0) {
      ++stats_.prefetched_pages;
      untouched_prefetched_.insert(std::make_pair(space->id().value, va_page));
      install_cost += costs_.pager_map_extra_page;
    }
  }
  if (payload_fetched && page_service_ != nullptr) {
    // Publish freshly-pulled payloads into the content plane so later
    // faults — here or on any host — can dedup against them.
    for (const PageRef& page : pages) {
      page_service_->Publish(page, sim_.Now());
    }
  }

  // Resume everyone whose page arrived; re-fault any waiter whose page the
  // backer failed to return (it will retry through Access).
  std::vector<Waiter> waiters = std::move(fetch.waiters);
  Cpu* cpu = fabric_.CpuOf(host_);
  cpu->Submit(CpuWork::kPager, install_cost, [this, space, waiters = std::move(waiters)]() mutable {
    for (Waiter& waiter : waiters) {
      if (!space->HasPrivatePage(waiter.page)) {
        ACCENT_LOG(kDebug) << "backer returned short; re-faulting page " << waiter.page;
        Access(space, PageBase(waiter.page), waiter.write, std::move(waiter.done));
        continue;
      }
      untouched_prefetched_.erase(std::make_pair(space->id().value, waiter.page));
      AccessOutcome outcome;
      outcome.fault = FaultKind::kImaginary;
      outcome.page = waiter.page;
      if (waiter.write) {
        memory_.MarkDirty(space->id(), waiter.page);
      }
      waiter.done(outcome);
    }
  });
}

void Pager::ServeCachePull(const Message& msg) {
  const auto& request = msg.BodyAs<ImagReadRequest>();
  ACCENT_CHECK(request.probe == ImagProbeKind::kCachePull)
      << " pager received a non-probe read request";

  ImagReadReply reply;
  reply.request_id = request.request_id;
  reply.segment = request.segment;
  reply.offset = request.offset;

  // All-or-miss: a holder only answers with payload when it caches every
  // requested page, so the probing pager never has to stitch a partial
  // holder reply with an origin tail.
  std::vector<PageRef> pages;
  if (page_service_ != nullptr &&
      request.page_hashes.size() == static_cast<std::size_t>(request.page_count)) {
    pages.reserve(request.page_hashes.size());
    for (const PageHash& hash : request.page_hashes) {
      const PageRef* hit = page_service_->cache().Lookup(hash);
      if (hit == nullptr) {
        pages.clear();
        break;
      }
      pages.push_back(*hit);  // refcount bump, no byte copy
    }
  }

  Message response;
  response.dest = request.reply_port;
  response.op = MsgOp::kImagReadReply;
  response.traffic = TrafficKind::kFaultData;
  if (pages.empty()) {
    reply.cache_miss = true;
    response.inline_bytes = costs_.cache_confirm_bytes;
  } else {
    stats_.cache_pull_pages_served += pages.size();
    response.inline_bytes = costs_.fault_reply_header_bytes;
    response.regions.push_back(MemoryRegion::Data(request.offset, std::move(pages)));
  }
  response.body = reply;

  const CpuPriority priority =
      costs_.fault_priority_lane ? CpuPriority::kHigh : CpuPriority::kNormal;
  fabric_.CpuOf(host_)->Submit(CpuWork::kPager, costs_.backer_service + costs_.cache_lookup_cpu,
                               [this, response = std::move(response)]() mutable {
                                 Result<void> sent = fabric_.Send(host_, std::move(response));
                                 if (!sent.ok()) {
                                   ACCENT_LOG(kDebug)
                                       << "cache pull reply dropped: " << sent.error().message;
                                 }
                               },
                               priority);
}

void Pager::NotifySpaceDeath(AddressSpace* space) {
  ACCENT_EXPECTS(space != nullptr);
  for (const IouRef& backer : space->ImaginaryBackers()) {
    ImagSegmentDeath death;
    death.segment = backer.segment;

    Message msg;
    msg.dest = backer.backing_port;
    msg.op = MsgOp::kImagSegmentDeath;
    msg.traffic = TrafficKind::kControl;
    msg.inline_bytes = kImagDeathBodyBytes;
    msg.body = death;
    Result<void> sent = fabric_.Send(host_, std::move(msg));
    if (!sent.ok()) {
      ACCENT_LOG(kDebug) << "segment death notice dropped: " << sent.error().message;
    }
  }
}

}  // namespace accent
