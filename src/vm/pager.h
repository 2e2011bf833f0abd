// The Pager/Scheduler process of one host.
//
// All page faults resolve here (section 2.2/2.3):
//   FillZero  — validated-but-untouched page: reserve a frame, zero it, map
//               it; the disk is never consulted.
//   Disk      — RealMem page not resident: fetch from the local disk.
//   CopyOnWrite — first write to a shared segment page: copy 512 bytes.
//   Imaginary — ImagMem page: send an Imaginary Read Request through the
//               IPC system to the backing port and wait for the reply;
//               optionally ask for `prefetch` additional contiguous pages.
//
// The pager is a Receiver: Imaginary Read Replies arrive on its port.
// Fetched pages are installed as RealMem with the local disk as their new
// backing store ("page-outs for imaginary data are performed to the local
// disk at the site that touched the page").
#ifndef SRC_VM_PAGER_H_
#define SRC_VM_PAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/base/types.h"
#include "src/host/cpu.h"
#include "src/host/disk.h"
#include "src/host/physical_memory.h"
#include "src/ipc/fabric.h"
#include "src/sim/simulator.h"
#include "src/vm/address_space.h"

namespace accent {

class PageService;

enum class FaultKind {
  kNone,  // resident hit
  kFillZero,
  kDisk,
  kCopyOnWrite,
  kImaginary,
  kAddressError,  // BadMem reference: the debugger would be invoked
};

// Short lower-case label ("fillzero", "disk", ...) used in traces and logs.
const char* FaultKindName(FaultKind kind);

struct AccessOutcome {
  FaultKind fault = FaultKind::kNone;
  PageIndex page = 0;
  bool prefetch_hit = false;  // resident because an earlier fault prefetched it
  // The access could not be satisfied: a BadMem reference, or the backing
  // port of an imaginary page has died. The process cannot proceed past
  // this reference (section 2.3's "analyze and properly terminate").
  bool failed = false;
};

struct PagerStats {
  std::uint64_t resident_hits = 0;
  std::uint64_t fillzero_faults = 0;
  std::uint64_t disk_faults = 0;
  std::uint64_t cow_faults = 0;
  std::uint64_t imag_faults = 0;
  std::uint64_t imag_pages_fetched = 0;   // total pages returned by backers
  std::uint64_t prefetched_pages = 0;     // beyond the faulted page
  std::uint64_t prefetch_hits = 0;        // later touches served by prefetch
  std::uint64_t pageouts = 0;             // dirty evictions written to disk
  std::uint64_t address_errors = 0;       // BadMem references
  std::uint64_t failed_fetches = 0;       // imaginary faults with dead backers

  // --- content-addressed page service (docs/INTERNALS.md §15) -------------
  // All zero unless the testbed wires a PageService into this pager; the
  // classic fault path never touches them.
  std::uint64_t cache_local_hits = 0;        // faults fully served from this host's cache
  std::uint64_t cache_pages_confirmed = 0;   // pages installed on a confirm ack (no payload)
  std::uint64_t cache_pages_from_holders = 0;  // payload pages pulled from non-origin holders
  std::uint64_t cache_holder_misses = 0;     // holder pulls answered "miss" (origin fallback)
  std::uint64_t cache_holder_failovers = 0;  // holder pulls that died (host dropped, origin fallback)
  std::uint64_t cache_pull_pages_served = 0;  // pages this host served to other pagers' pulls
  std::uint64_t cache_hash_rejects = 0;      // holder payloads rejected: bytes != requested hash
};

class Pager : public Receiver {
 public:
  using AccessDone = std::function<void(const AccessOutcome&)>;

  Pager(HostId host, Simulator* sim, const CostTable* costs, IpcFabric* fabric, Disk* disk,
        PhysicalMemory* memory);

  // Allocates the pager's service port. Must run before any imaginary fault.
  void Start();

  PortId port() const { return port_; }
  HostId host() const { return host_; }

  // Pages (beyond the faulted one) requested per imaginary fault.
  void set_prefetch_pages(std::uint32_t pages) { prefetch_pages_ = pages; }
  std::uint32_t prefetch_pages() const { return prefetch_pages_; }

  // Arms a per-fetch timeout (costs.pager_fetch_timeout) that fails any
  // imaginary fetch whose reply never arrives. Off by default: lossless
  // testbeds must not carry extra events; fault-injection testbeds enable
  // it so a crashed backer can never strand a process.
  void set_fetch_timeout_enabled(bool enabled) { fetch_timeout_enabled_ = enabled; }

  // Wires the host's content-addressed PageService (docs/INTERNALS.md §15).
  // Null (the default) is the classic protocol: no hashes are consulted or
  // computed and every imaginary fault pulls from its backing port. With a
  // service wired, fully-hinted faults walk cache tiers first and this
  // pager additionally answers kCachePull probes from peer pagers.
  void set_page_service(PageService* service) { page_service_ = service; }
  PageService* page_service() const { return page_service_; }

  // Resolves a touch of `addr` by `space`; `done` runs once the page is
  // resident (and privately owned, for writes). Charges all fault costs.
  void Access(AddressSpace* space, Addr addr, bool write, AccessDone done);

  // Sends Imaginary Segment Death notices for every backer `space` still
  // references (process termination / address-space teardown).
  void NotifySpaceDeath(AddressSpace* space);

  // Receiver: Imaginary Read Replies.
  void HandleMessage(Message msg) override;
  const char* receiver_name() const override { return "pager"; }

  const PagerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PagerStats{}; }

 private:
  struct Waiter {
    PageIndex page;
    bool write;
    AccessDone done;
  };
  // Which tier of the hash-probe fault walk a fetch is currently on
  // (docs/INTERNALS.md §15). Classic faults live their whole life on
  // kOrigin; probe tiers fall back to kOrigin on any setback.
  enum class FetchTier {
    kOrigin,        // pull payload from the backing port (the classic path)
    kLocalConfirm,  // bytes cached locally; origin only acks ownership+hash
    kHolderPull,    // pull payload from a nearer directory holder
  };
  struct PendingFetch {
    AddressSpace* space = nullptr;
    std::vector<PageIndex> va_pages;  // va_pages[i] receives returned page i
    std::vector<Waiter> waiters;
    FetchTier tier = FetchTier::kOrigin;
    std::uint64_t attempt = 0;  // guards timeout timers across fallbacks
    AddressSpace::ImagTarget target;   // original backing target (fallback reissue)
    std::vector<PageHash> hashes;      // hints for the run (probe tiers only)
    std::vector<PageRef> cached_pages;  // payloads to install on a confirm ack
    HostId holder;                     // probed holder (kHolderPull only)
  };

  // Makes the page resident, accounting dirty evictions (page-outs).
  void MakeResident(AddressSpace* space, PageIndex page, bool dirty);

  // Ensures a private copy exists for writes; may charge a COW fault.
  // Returns the extra CPU charged. The caller holds the frame dirty.
  SimDuration ResolveWriteCopy(AddressSpace* space, PageIndex page, AccessOutcome* outcome);

  void StartImaginaryFault(AddressSpace* space, PageIndex page, bool write, AccessDone done);

  // Builds and sends the read request for `request_id` according to its
  // current tier, charging the pager CPU and (re-)arming the timeout.
  void DispatchFetch(std::uint64_t request_id);

  // A fetch came back without pages: a holder miss/crash falls back to the
  // origin; anything else fails the fetch like the classic protocol.
  void FetchSetback(std::uint64_t request_id, bool holder_miss);

  // Installs `pages` for a completed fetch and resumes its waiters.
  // `counted_fetched` selects between imag_pages_fetched (payload crossed
  // the wire) and cache_pages_confirmed (installed from the local cache).
  void CompleteFetch(PendingFetch fetch, const std::vector<PageRef>& pages,
                     bool payload_fetched);

  // Answers a peer pager's kCachePull probe from the local ContentCache.
  void ServeCachePull(const Message& msg);

  // Completes every waiter of `request_id` with a failed outcome (the
  // backing port has died: the owed memory is unrecoverable).
  void FailPendingFetch(std::uint64_t request_id);

  HostId host_;
  Simulator& sim_;
  const CostTable& costs_;
  IpcFabric& fabric_;
  Disk& disk_;
  PhysicalMemory& memory_;
  PortId port_;
  std::uint32_t prefetch_pages_ = 0;
  bool fetch_timeout_enabled_ = false;
  PageService* page_service_ = nullptr;
  std::uint64_t next_request_id_ = 1;
  std::map<std::uint64_t, PendingFetch> pending_;
  // (space,page) currently being fetched -> request id (for waiter joining).
  std::map<std::pair<std::uint64_t, PageIndex>, std::uint64_t> in_flight_pages_;
  // Pages installed by prefetch and not yet touched (for hit accounting).
  std::set<std::pair<std::uint64_t, PageIndex>> untouched_prefetched_;
  PagerStats stats_;
};

}  // namespace accent

#endif  // SRC_VM_PAGER_H_
