// The NetMsgServer: Accent's user-level network IPC extension (section 2.4).
//
// One runs on every host. It carries messages whose destination port lives
// on another machine: large messages are fragmented, streamed over the wire
// and reassembled; every byte handled costs CPU on *both* nodes — this
// software path, not the 10 Mbit wire, is the paper's bottleneck, and the
// Figure 4-4 "message handling cost" metric is exactly the busy time charged
// here.
//
// On its own initiative the NetMsgServer may cache the RealMem portions of
// an outbound message and pass IOUs instead, becoming the memory manager
// for that data (copy-on-reference). Senders inhibit this with the NoIOUs
// header bit. Cached data is served by an embedded SegmentBacker answering
// Imaginary Read Requests until the Imaginary Segment Death notice arrives.
//
// Backed migration objects are indexed by *virtual address*: a request for
// offset X returns the pages at VA X of the cached address space. The
// substituted message carries a single consolidated IOU; receivers that
// need the precise RealMem layout (InsertProcess) intersect it with the
// AMap that travels in the Core message — which is why Accent ships the
// AMap eagerly.
#ifndef SRC_NETMSG_NETMSGSERVER_H_
#define SRC_NETMSG_NETMSGSERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/types.h"
#include "src/host/cpu.h"
#include "src/ipc/fabric.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/vm/backer.h"
#include "src/vm/segment.h"

namespace accent {

class NetMsgServer;
class PageService;

// Host -> NetMsgServer lookup shared by all servers in one simulation.
class NetMsgDirectory {
 public:
  void Register(HostId host, NetMsgServer* server);
  NetMsgServer* Find(HostId host) const;

 private:
  std::map<std::uint64_t, NetMsgServer*> servers_;
};

// Number of wire fragments a message of `wire_bytes` is carved into —
// ceil(wire / netmsg_fragment_bytes), never zero (headers ride a fragment
// even for empty messages).
std::uint64_t NetMsgFragmentCount(const CostTable& costs, ByteCount wire_bytes);

// CPU charged for handling a complete message of `fragments` fragments
// totalling `bytes`: the per-message protocol work plus per-fragment and
// per-byte costs. The receiving NetMsgServer charges it once per delivered
// message, and the cluster model's analytic delivery charge uses the same
// formula.
SimDuration NetMsgDeliveryCost(const CostTable& costs, std::uint64_t fragments,
                               ByteCount bytes);

struct NetMsgStats {
  std::uint64_t messages_forwarded = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t fragments_received = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t regions_cached = 0;    // Real regions substituted with IOUs
  ByteCount bytes_cached = 0;          // page bytes kept home by substitution

  // Reliable-transport counters; all zero when reliable mode is off.
  std::uint64_t fragments_retransmitted = 0;
  ByteCount retransmit_bytes = 0;            // wire bytes re-sent
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t duplicates_suppressed = 0;   // fragments discarded as dups
  std::uint64_t transfers_dead_lettered = 0; // gave up after max retries
};

class NetMsgServer : public RemoteTransport {
 public:
  NetMsgServer(HostId host, Simulator* sim, const CostTable* costs, IpcFabric* fabric,
               Network* network, SegmentTable* segments, NetMsgDirectory* directory);

  // Allocates the backing port and joins the directory.
  void Start();

  HostId host() const { return host_; }
  PortId backing_port() const { return backer_.port(); }
  SegmentBacker& backer() { return backer_; }

  // Enables/disables IOU substitution for eligible outbound messages
  // (ablation knob; the paper's system has it on).
  void set_iou_caching(bool enabled) { iou_caching_ = enabled; }
  bool iou_caching() const { return iou_caching_; }

  // Switches outbound transfers to the reliable protocol. Every message
  // takes the same fragment, send and reassemble path either way; reliable
  // mode adds three steps to it: a retry timer per sent fragment
  // (retransmission with capped exponential backoff, costs.netmsg_rto_*),
  // an ack for every arrival, and duplicate suppression by fragment index.
  // Off by default, so lossless runs carry no acks and no timers; the
  // testbed turns it on together with a Network fault injector.
  void set_reliable(bool enabled) { reliable_ = enabled; }
  bool reliable() const { return reliable_; }

  // Invoked (reliable mode) when a transfer exhausts its retries and the
  // peer is presumed unreachable for good; receives the undelivered
  // message. Imaginary Read Requests are bounced to the local pager as
  // failed replies before the handler is consulted.
  using DeadLetterHandler = std::function<void(const Message&)>;
  void set_dead_letter_handler(DeadLetterHandler handler) {
    dead_letter_ = std::move(handler);
  }

  // Adopts `pages` (keyed by VA page index) as a VA-indexed backed object
  // and returns its IouRef (marked migration_cache). Used by the
  // resident-set strategy, which ships the resident pages physically and
  // leaves IOUs for the rest, and by SubstituteIous. Adoption moves payload
  // references — the cache never duplicates page bytes. When `owner` is
  // valid the object is recorded against that process so it can be handed
  // off if the process re-migrates (TakeCacheObjectsFor).
  IouRef AdoptPages(std::vector<std::pair<PageIndex, PageRef>> pages, const std::string& name,
                    ProcId owner = ProcId{});

  // Returns (and forgets) the cache objects adopted for `owner`. The caller
  // — the migration manager collapsing a chain — takes responsibility for
  // exporting or retiring them through the embedded backer.
  std::vector<IouRef> TakeCacheObjectsFor(ProcId owner);

  // Wires the host's content-addressed PageService (docs/INTERNALS.md §15).
  // Null (the default) keeps the classic protocol: no hashes are computed
  // and outbound IOU regions carry no rider.
  void set_page_service(PageService* service) { page_service_ = service; }
  PageService* page_service() const { return page_service_; }

  // Builds the §15 hash rider for an IOU region based at `lo` whose
  // payloads are `pages` (VA-page-indexed), publishing every payload into
  // this host's content plane as a side effect. The rider is sparse: hole
  // pages — spanned by the consolidated IOU but not present — carry no
  // entry at all, so a 4 GB zero-fill expanse bridged by the span costs
  // nothing in memory or on the wire. Returns an empty rider (zero wire
  // bytes, the classic protocol) when no PageService is wired.
  std::vector<PageHashEntry> PublishIouPages(
      const std::vector<std::pair<PageIndex, PageRef>>& pages, Addr lo);

  // RemoteTransport: carries `msg` to the NetMsgServer at `dest_host`.
  void ForwardToRemote(HostId dest_host, Message msg) override;

  const NetMsgStats& stats() const { return stats_; }

 private:
  friend class NetMsgDirectory;

  // Replaces the message's RealMem regions with one consolidated IOU,
  // caching their pages locally. Returns true if substitution happened.
  bool SubstituteIous(Message* msg);

  static bool EligibleForSubstitution(const Message& msg);

  // One message in flight, shared by both ends: the sender builds it and
  // sends its fragments, the receiver counts arrivals into it and claims
  // `msg` when reassembly completes. Reassembly is store-and-forward: the
  // receiving server's per-byte handling runs once the message is complete,
  // which serialises the two nodes' CPU work the way the measured system
  // behaved. A fragment's retries, acked and seen change only in reliable
  // mode; `delivered` downgrades a dead-letter verdict reached purely
  // through lost acks to success (the two-generals case: data arrived,
  // receipts didn't).
  struct Fragment {
    ByteCount bytes = 0;
    std::uint32_t retries = 0;
    bool acked = false;
    bool seen = false;  // arrived at the receiver
  };
  struct Transfer {
    Message msg;
    NetMsgServer* sender = nullptr;
    NetMsgServer* receiver = nullptr;
    std::uint64_t id = 0;
    TrafficKind kind = TrafficKind::kControl;
    bool reliable = false;
    std::vector<Fragment> fragments;
    std::uint64_t received = 0;  // distinct fragments arrived
    ByteCount received_bytes = 0;
    bool delivered = false;  // receiver completed reassembly
    bool dead = false;       // dead-lettered; stop retrying
  };

  CpuPriority PriorityOf(TrafficKind kind) const;
  void SendFragment(const std::shared_ptr<Transfer>& transfer, std::size_t index,
                    bool retransmit);
  void ArmRetryTimer(const std::shared_ptr<Transfer>& transfer, std::size_t index);
  void OnFragment(const std::shared_ptr<Transfer>& transfer, std::size_t index);
  void SendAck(const std::shared_ptr<Transfer>& transfer, std::size_t index);
  void OnFragmentAck(const std::shared_ptr<Transfer>& transfer, std::size_t index);
  void DeadLetterTransfer(const std::shared_ptr<Transfer>& transfer);

  HostId host_;
  Simulator& sim_;
  const CostTable& costs_;
  IpcFabric& fabric_;
  Network& network_;
  NetMsgDirectory& directory_;
  SegmentBacker backer_;
  PageService* page_service_ = nullptr;
  bool iou_caching_ = true;
  bool reliable_ = false;
  // Cache objects adopted on behalf of a migrating process, keyed by
  // ProcId: the chain-collapse handoff evacuates these when the process
  // re-migrates away from this host.
  std::map<std::uint64_t, std::vector<IouRef>> cache_objects_by_proc_;
  std::uint64_t next_transfer_id_ = 1;
  DeadLetterHandler dead_letter_;
  NetMsgStats stats_;
};

}  // namespace accent

#endif  // SRC_NETMSG_NETMSGSERVER_H_
