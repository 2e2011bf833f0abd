#include "src/netmsg/netmsgserver.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/net/page_service.h"
#include "src/vm/imag_protocol.h"

namespace accent {

std::uint64_t NetMsgFragmentCount(const CostTable& costs, ByteCount wire_bytes) {
  const ByteCount frag_payload = costs.netmsg_fragment_bytes;
  return std::max<std::uint64_t>(1, (wire_bytes + frag_payload - 1) / frag_payload);
}

SimDuration NetMsgDeliveryCost(const CostTable& costs, std::uint64_t fragments,
                               ByteCount bytes) {
  return costs.netmsg_per_message +
         costs.netmsg_per_fragment * static_cast<std::int64_t>(fragments) +
         costs.netmsg_per_byte * static_cast<std::int64_t>(bytes);
}

void NetMsgDirectory::Register(HostId host, NetMsgServer* server) {
  ACCENT_EXPECTS(server != nullptr);
  ACCENT_EXPECTS(servers_.count(host.value) == 0) << " duplicate NetMsgServer on " << host;
  servers_[host.value] = server;
}

NetMsgServer* NetMsgDirectory::Find(HostId host) const {
  auto it = servers_.find(host.value);
  return it == servers_.end() ? nullptr : it->second;
}

NetMsgServer::NetMsgServer(HostId host, Simulator* sim, const CostTable* costs,
                           IpcFabric* fabric, Network* network, SegmentTable* segments,
                           NetMsgDirectory* directory)
    : host_(host),
      sim_(*sim),
      costs_(*costs),
      fabric_(*fabric),
      network_(*network),
      directory_(*directory),
      backer_(host, sim, costs, fabric, segments, CpuWork::kNetMsgServer, "netmsg") {
  ACCENT_EXPECTS(network != nullptr && directory != nullptr);
}

void NetMsgServer::Start() {
  backer_.Start();
  directory_.Register(host_, this);
  fabric_.SetTransport(host_, this);
}

IouRef NetMsgServer::AdoptPages(std::vector<std::pair<PageIndex, PageRef>> pages,
                                const std::string& name, ProcId owner) {
  ACCENT_EXPECTS(!pages.empty());
  // Migration cache objects are indexed by virtual address, so the object
  // spans the whole 4 GB space; only the adopted pages consume storage.
  IouRef iou = backer_.BackSparsePages(kAddressSpaceLimit, std::move(pages), name);
  iou.migration_cache = true;
  if (owner.valid()) {
    cache_objects_by_proc_[owner.value].push_back(iou);
  }
  return iou;
}

std::vector<PageHashEntry> NetMsgServer::PublishIouPages(
    const std::vector<std::pair<PageIndex, PageRef>>& pages, Addr lo) {
  if (page_service_ == nullptr) {
    return {};
  }
  const PageIndex first = PageOf(lo);
  std::vector<PageHashEntry> rider;
  rider.reserve(pages.size());
  for (const auto& [page, payload] : pages) {
    rider.push_back({page - first, page_service_->Publish(payload, sim_.Now())});
  }
  std::sort(rider.begin(), rider.end(),
            [](const PageHashEntry& a, const PageHashEntry& b) { return a.slot < b.slot; });
  return rider;
}

std::vector<IouRef> NetMsgServer::TakeCacheObjectsFor(ProcId owner) {
  auto it = cache_objects_by_proc_.find(owner.value);
  if (it == cache_objects_by_proc_.end()) {
    return {};
  }
  std::vector<IouRef> objects = std::move(it->second);
  cache_objects_by_proc_.erase(it);
  // Drop objects the backer already retired (the process died or its
  // references were balanced before any re-migration).
  std::vector<IouRef> live;
  for (const IouRef& iou : objects) {
    if (backer_.Owns(iou.segment)) {
      live.push_back(iou);
    }
  }
  return live;
}

bool NetMsgServer::EligibleForSubstitution(const Message& msg) {
  if (msg.no_ious) {
    return false;
  }
  switch (msg.op) {
    case MsgOp::kUser:
    case MsgOp::kMigrateRimas:
      break;
    default:
      return false;  // protocol replies and control traffic ship as-is
  }
  for (const MemoryRegion& region : msg.regions) {
    if (region.mem_class == MemClass::kReal) {
      return true;
    }
  }
  return false;
}

bool NetMsgServer::SubstituteIous(Message* msg) {
  if (!iou_caching_ || !EligibleForSubstitution(*msg)) {
    return false;
  }

  std::vector<std::pair<PageIndex, PageRef>> cached;
  Addr lo = kAddressSpaceLimit;
  Addr hi = 0;
  std::vector<MemoryRegion> kept;
  for (MemoryRegion& region : msg->regions) {
    if (region.mem_class != MemClass::kReal) {
      kept.push_back(std::move(region));
      continue;
    }
    lo = std::min(lo, region.base);
    hi = std::max(hi, region.base + region.size);
    ++stats_.regions_cached;
    stats_.bytes_cached += region.size;
    for (PageIndex i = 0; i < region.page_count(); ++i) {
      cached.emplace_back(PageOf(region.base) + i, std::move(region.pages[i]));
    }
  }
  ACCENT_CHECK(!cached.empty());

  std::vector<PageHashEntry> rider = PublishIouPages(cached, lo);
  IouRef iou = AdoptPages(std::move(cached), "iou-cache", msg->cache_owner);
  // One consolidated IOU spans the cached ranges; receivers needing the
  // precise layout intersect it with the AMap from the Core message. The
  // cache object is VA-indexed and region offsets are base-relative, so the
  // IOU is anchored at the span's base.
  iou.offset = lo;
  MemoryRegion iou_region = MemoryRegion::Iou(lo, hi - lo, iou);
  iou_region.page_hashes = std::move(rider);
  kept.push_back(std::move(iou_region));
  msg->regions = std::move(kept);
  return true;
}

CpuPriority NetMsgServer::PriorityOf(TrafficKind kind) const {
  return costs_.fault_priority_lane && kind == TrafficKind::kFaultData ? CpuPriority::kHigh
                                                                        : CpuPriority::kNormal;
}

void NetMsgServer::ForwardToRemote(HostId dest_host, Message msg) {
  ACCENT_EXPECTS(dest_host != host_);
  NetMsgServer* peer = directory_.Find(dest_host);
  ACCENT_CHECK(peer != nullptr) << " no NetMsgServer on " << dest_host;

  const bool iou_substituted = SubstituteIous(&msg);
  ++stats_.messages_forwarded;

  const ByteCount wire = msg.WireSize(costs_);
  const std::uint64_t fragments = NetMsgFragmentCount(costs_, wire);

  if (Tracer* tracer = sim_.tracer()) {
    tracer->Instant(host_, TraceLane::kNetMsg, "netmsg:forward", sim_.Now(),
                    {{"op", Json(MsgOpName(msg.op))},
                     {"dest", Json(dest_host.value)},
                     {"wire_bytes", Json(wire)},
                     {"fragments", Json(fragments)},
                     {"iou_substituted", Json(iou_substituted)},
                     {"reliable", Json(reliable_)}});
  }

  auto transfer = std::make_shared<Transfer>();
  transfer->sender = this;
  transfer->receiver = peer;
  // Transfer ids are disambiguated by sender so traces never confuse two
  // peers' transfers.
  transfer->id = (host_.value << 48) | next_transfer_id_++;
  transfer->kind = msg.traffic;
  transfer->reliable = reliable_;
  transfer->fragments.resize(fragments);
  ByteCount remaining = wire;
  for (Fragment& fragment : transfer->fragments) {
    fragment.bytes = std::min<ByteCount>(costs_.netmsg_fragment_bytes, remaining);
    remaining -= fragment.bytes;
  }
  transfer->msg = std::move(msg);

  // Per-message protocol work happens once, up front.
  fabric_.CpuOf(host_)->Submit(CpuWork::kNetMsgServer, costs_.netmsg_per_message, nullptr,
                               PriorityOf(transfer->kind));
  for (std::size_t i = 0; i < fragments; ++i) {
    SendFragment(transfer, i, /*retransmit=*/false);
  }
}

void NetMsgServer::SendFragment(const std::shared_ptr<Transfer>& transfer, std::size_t index,
                                bool retransmit) {
  const Fragment& fragment = transfer->fragments[index];
  ++stats_.fragments_sent;
  if (retransmit) {
    ++stats_.fragments_retransmitted;
    stats_.retransmit_bytes += fragment.bytes;
  }
  if (Tracer* tracer = sim_.tracer();
      tracer != nullptr && (retransmit || tracer->verbose())) {
    tracer->Instant(host_, TraceLane::kNetMsg,
                    retransmit ? "netmsg:retransmit" : "netmsg:frag-send",
                    sim_.Now(),
                    {{"transfer", Json(transfer->id)},
                     {"index", Json(static_cast<std::uint64_t>(index))},
                     {"bytes", Json(fragment.bytes)},
                     {"retry", Json(fragment.retries)}});
  }
  const SimDuration handle = costs_.netmsg_per_fragment +
                             costs_.netmsg_per_byte * static_cast<std::int64_t>(fragment.bytes);
  fabric_.CpuOf(host_)->Submit(
      CpuWork::kNetMsgServer, handle,
      [this, transfer, index]() {
        const Fragment& queued = transfer->fragments[index];
        if (transfer->dead || queued.acked) {
          return;  // acked (or abandoned) while queued on the CPU
        }
        network_.Transmit(host_, transfer->receiver->host(), queued.bytes, transfer->kind,
                          [transfer, index]() { transfer->receiver->OnFragment(transfer, index); });
        if (transfer->reliable) {
          ArmRetryTimer(transfer, index);
        }
      },
      PriorityOf(transfer->kind));
}

void NetMsgServer::ArmRetryTimer(const std::shared_ptr<Transfer>& transfer, std::size_t index) {
  SimDuration rto = costs_.netmsg_rto_initial;
  for (std::uint32_t i = 0;
       i < transfer->fragments[index].retries && rto < costs_.netmsg_rto_max; ++i) {
    rto += rto;  // exponential backoff
  }
  rto = std::min(rto, costs_.netmsg_rto_max);
  sim_.ScheduleAfter(rto, [this, transfer, index]() {
    Fragment& fragment = transfer->fragments[index];
    if (transfer->dead || fragment.acked) {
      return;
    }
    if (fragment.retries >= costs_.netmsg_max_retries) {
      DeadLetterTransfer(transfer);
      return;
    }
    ++fragment.retries;
    SendFragment(transfer, index, /*retransmit=*/true);
  });
}

void NetMsgServer::OnFragment(const std::shared_ptr<Transfer>& transfer, std::size_t index) {
  ++stats_.fragments_received;
  Fragment& fragment = transfer->fragments[index];
  if (transfer->reliable) {
    // Every arrival is acknowledged, duplicates included: the sender may be
    // retrying because the previous ack was the casualty.
    SendAck(transfer, index);
    if (fragment.seen) {
      ++stats_.duplicates_suppressed;
      if (Tracer* tracer = sim_.tracer(); tracer != nullptr && tracer->verbose()) {
        tracer->Instant(host_, TraceLane::kNetMsg, "netmsg:dup-suppressed", sim_.Now(),
                        {{"transfer", Json(transfer->id)},
                         {"index", Json(static_cast<std::uint64_t>(index))}});
      }
      return;
    }
    fragment.seen = true;
  }
  transfer->received_bytes += fragment.bytes;
  if (++transfer->received < transfer->fragments.size()) {
    return;
  }

  // Complete: claim the payload (any retransmissions still in flight are
  // suppressed above), charge this node's handling in one piece and
  // deliver.
  if (Tracer* tracer = sim_.tracer()) {
    tracer->Instant(host_, TraceLane::kNetMsg, "netmsg:delivered", sim_.Now(),
                    {{"transfer", Json(transfer->id)},
                     {"bytes", Json(transfer->received_bytes)},
                     {"fragments", Json(transfer->received)}});
  }
  transfer->delivered = true;
  ++stats_.messages_delivered;
  const SimDuration handle =
      NetMsgDeliveryCost(costs_, transfer->received, transfer->received_bytes);
  fabric_.CpuOf(host_)->Submit(CpuWork::kNetMsgServer, handle,
                               [this, msg = std::move(transfer->msg)]() mutable {
                                 fabric_.DeliverAt(host_, std::move(msg));
                               },
                               PriorityOf(transfer->kind));
}

void NetMsgServer::SendAck(const std::shared_ptr<Transfer>& transfer, std::size_t index) {
  ++stats_.acks_sent;
  if (Tracer* tracer = sim_.tracer();
      tracer != nullptr && tracer->verbose()) {
    tracer->Instant(host_, TraceLane::kNetMsg, "netmsg:ack-send", sim_.Now(),
                    {{"transfer", Json(transfer->id)},
                     {"index", Json(static_cast<std::uint64_t>(index))}});
  }
  // Acks are tiny driver-level frames: they ride the (faulty) wire but
  // charge no NetMsgServer CPU, and are never themselves retried — the
  // sender's retransmission timer covers their loss.
  network_.Transmit(host_, transfer->sender->host(), costs_.netmsg_ack_bytes,
                    TrafficKind::kControl,
                    [transfer, index]() { transfer->sender->OnFragmentAck(transfer, index); });
}

void NetMsgServer::OnFragmentAck(const std::shared_ptr<Transfer>& transfer, std::size_t index) {
  ++stats_.acks_received;
  if (Tracer* tracer = sim_.tracer();
      tracer != nullptr && tracer->verbose()) {
    tracer->Instant(host_, TraceLane::kNetMsg, "netmsg:ack-recv", sim_.Now(),
                    {{"transfer", Json(transfer->id)},
                     {"index", Json(static_cast<std::uint64_t>(index))}});
  }
  transfer->fragments[index].acked = true;
}

void NetMsgServer::DeadLetterTransfer(const std::shared_ptr<Transfer>& transfer) {
  if (transfer->dead) {
    return;
  }
  transfer->dead = true;
  if (transfer->delivered) {
    // Two-generals: every fragment arrived but the acks were lost. The
    // receiver owns the message; this is a success, not a failure.
    ACCENT_LOG(kDebug) << "transfer " << transfer->id
                       << " acks lost but payload delivered; not dead-lettering";
    return;
  }
  ++stats_.transfers_dead_lettered;
  const Message& msg = transfer->msg;
  const HostId dest = transfer->receiver->host();
  if (Tracer* tracer = sim_.tracer()) {
    tracer->Instant(host_, TraceLane::kNetMsg, "netmsg:dead-letter", sim_.Now(),
                    {{"transfer", Json(transfer->id)},
                     {"op", Json(MsgOpName(msg.op))},
                     {"dest", Json(dest.value)}});
  }
  ACCENT_LOG(kInfo) << "dead-lettering " << MsgOpName(msg.op) << " transfer " << transfer->id
                    << " to " << dest;

  if (msg.op == MsgOp::kImagReadRequest) {
    // The unreachable peer owes this host memory it will never deliver:
    // bounce a terminal failure reply to the local pager so the faulting
    // process stops instead of hanging (§2.3's "analyze and properly
    // terminate", stretched across machines).
    const auto& request = msg.BodyAs<ImagReadRequest>();
    ImagReadReply reply;
    reply.request_id = request.request_id;
    reply.segment = request.segment;
    reply.offset = request.offset;
    reply.failed = true;
    Message bounce;
    bounce.dest = request.reply_port;
    bounce.op = MsgOp::kImagReadReply;
    bounce.traffic = TrafficKind::kControl;
    bounce.inline_bytes = kImagReplyBodyBytes;
    bounce.body = reply;
    fabric_.DeliverAt(host_, std::move(bounce));
    return;
  }
  if (dead_letter_ != nullptr) {
    dead_letter_(msg);
  }
}

}  // namespace accent
