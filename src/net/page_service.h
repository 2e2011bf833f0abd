// The content-addressed cluster page service.
//
// Every owed-page strategy funnels Imaginary Read Requests back to the one
// origin SegmentBacker — the paper's §5 bottleneck. Naming pages by content
// (PAPERS.md: "Process Migration over CCNx") breaks the funnel: a per-host
// ContentCache holds recently-transferred payloads keyed by their strong
// PageHash, and a per-simulation PageDirectory maps hash -> holder hosts, so
// a destination pager can satisfy a fault from its own cache (a small
// confirm ack replaces the payload) or from the nearest holder before ever
// touching the origin.
//
// Identity discipline: cache keys are PageHash (128-bit, avalanche-mixed)
// and every insertion re-verifies that the bytes actually hash to the
// claimed key — the weak PageIntegrityChecksum can never reach a cache (the
// deliberate-collision test in tests/page_service_test.cc proves both).
//
// Directory protocol: holders announce asynchronously; an announcement
// becomes visible to queries only after `propagation` of simulated time
// (one wire latency), so a probe can always race a crash or an eviction. Staleness is safe by
// construction: a holder that no longer has the bytes answers "miss" and
// the pager falls back to the origin; a holder that crashed times out and
// the pager drops the host from the directory before falling back. Pages
// can therefore go *stale* but never *wrong* — payload identity is
// re-verified against the shipped hash at every install.
#ifndef SRC_NET_PAGE_SERVICE_H_
#define SRC_NET_PAGE_SERVICE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "src/base/page_ref.h"
#include "src/base/types.h"

namespace accent {

struct ContentCacheStats {
  std::uint64_t hits = 0;            // lookups served from the cache
  std::uint64_t misses = 0;          // lookups that fell through
  std::uint64_t insertions = 0;      // pages accepted
  std::uint64_t evictions = 0;       // pages LRU-evicted under pressure
  std::uint64_t hash_mismatches = 0;  // insertions rejected: bytes != claimed hash
};

// Capacity-bounded LRU cache of page payloads keyed by content hash.
// Single-simulation object, like everything else in a Testbed: parallel
// sweeps give every trial a private instance, so no locking.
class ContentCache {
 public:
  explicit ContentCache(std::int64_t capacity_pages);

  // Accepts `page` under `hash` after re-verifying page.Hash() == hash;
  // a mismatch (forged identity) is rejected and counted. Zero pages are
  // never cached — the pager materialises those locally for free. Returns
  // whether the page is resident afterwards.
  bool InsertVerified(const PageHash& hash, const PageRef& page);

  // Returns the cached payload or nullptr, counting a hit or a miss and
  // refreshing LRU recency on hit. The pointer is invalidated by the next
  // insertion or eviction — copy the PageRef out (a refcount bump).
  const PageRef* Lookup(const PageHash& hash);

  // Counter-free probe (oracles and tests).
  bool Contains(const PageHash& hash) const;

  std::int64_t size_pages() const { return static_cast<std::int64_t>(entries_.size()); }
  std::int64_t capacity_pages() const { return capacity_pages_; }
  const ContentCacheStats& stats() const { return stats_; }

 private:
  void EvictToCapacity();

  struct Entry {
    PageRef page;
    std::list<PageHash>::iterator lru_it;
  };

  std::int64_t capacity_pages_;
  std::list<PageHash> lru_;  // front = most recently used
  std::map<PageHash, Entry> entries_;
  ContentCacheStats stats_;
};

// Cluster-wide hash -> holders map. One instance per simulation, shared by
// every host's PageService. Holder announcements become visible only
// `propagation` after they are recorded (see the file comment), and
// queries rank candidates by the host link-cost rank installed at wiring
// time (HostCalibration wire cost; ties break on the lower host id), so
// NearestHolder is deterministic.
class PageDirectory {
 public:
  explicit PageDirectory(SimDuration propagation) : propagation_(propagation) {}

  // Lower rank = cheaper link = nearer. Unranked hosts default to rank 0.
  void SetHostRank(HostId host, double rank) { ranks_[host] = rank; }

  // Where a host answers kCachePull probes (its pager's port). A holder
  // without a registered port is never probed.
  void SetServicePort(HostId host, PortId port) { service_ports_[host] = port; }
  PortId ServicePortOf(HostId host) const {
    auto it = service_ports_.find(host);
    return it != service_ports_.end() ? it->second : PortId{};
  }

  void RecordHolder(const PageHash& hash, HostId host, SimTime now);

  // Forgets every holding recorded for `host` (crash, retirement). The
  // host may re-announce later; old entries never resurface.
  void DropHost(HostId host);

  // The cheapest holder of `hash` visible at `now`, excluding the querying
  // host and the origin (their tiers are handled separately by the pager).
  std::optional<HostId> NearestHolder(const PageHash& hash, SimTime now,
                                      HostId exclude_a, HostId exclude_b) const;

  std::uint64_t holders_recorded() const { return holders_recorded_; }
  std::uint64_t hosts_dropped() const { return hosts_dropped_; }

 private:
  struct Holding {
    SimTime visible_at{0};
  };

  SimDuration propagation_;
  std::map<PageHash, std::map<HostId, Holding>> holders_;
  std::map<HostId, double> ranks_;
  std::map<HostId, PortId> service_ports_;
  std::uint64_t holders_recorded_ = 0;
  std::uint64_t hosts_dropped_ = 0;
};

// Per-host facade wired into HostEnv: the host's ContentCache plus the
// shared directory. Publish is the single choke point through which pages
// enter the dedup plane — it hashes, caches and announces in one step, so
// a page can never be announced under a hash it does not have.
class PageService {
 public:
  PageService(HostId host, PageDirectory* directory, std::int64_t capacity_pages);

  HostId host() const { return host_; }
  ContentCache& cache() { return cache_; }
  const ContentCache& cache() const { return cache_; }
  PageDirectory& directory() { return *directory_; }
  const PageDirectory& directory() const { return *directory_; }

  // Hashes `page`, inserts it into the local cache and announces this host
  // as a holder (visible after the directory's propagation delay). Zero
  // pages return the interned hash without caching or announcing.
  PageHash Publish(const PageRef& page, SimTime now);

 private:
  HostId host_;
  PageDirectory* directory_;
  ContentCache cache_;
};

}  // namespace accent

#endif  // SRC_NET_PAGE_SERVICE_H_
