// Refcounted immutable page payloads: the zero-copy data plane's currency.
//
// The paper's thesis is that copying bytes is the migration bottleneck; the
// simulator should not spend its own wall-clock proving the point. A PageRef
// is a shared, immutable page payload: moving one between a segment, an
// excise region, a Message, a NetMsgServer fragment and a retransmit queue
// bumps a refcount instead of duplicating 512 bytes. The zero page is
// interned process-wide (a null payload), so validating gigabytes of
// RealZeroMem allocates nothing — same contract as the old empty-PageData
// convention.
//
// The simulator's own images are copy-on-reference too: PageRef::Pattern
// makes a payload that holds only its seed and generates MakePatternPage's
// bytes into itself the first time any reader (Bytes, ByteAt, Hash,
// IntegrityChecksum, Clone, operator==, WriteByte) needs them. A process
// touches only part of its RealMem (Table 4-3), so the pages no run reads
// are never generated. A payload's bytes are empty only while it is an
// unmaterialised pattern: the zero page has no payload, and pattern words
// are never zero.
//
// Mutation is copy-on-write: WriteByte clones the payload only when it is
// actually shared, so a writer can never be observed by other holders.
// The use_count-based COW check, the in-place materialisation and the
// hash memo are only race-free because payloads never cross threads. They
// may cross runs on one thread: a WorkloadImage (src/workloads/workload.h)
// shares its pattern pages with every run a runner stages from it, one
// after another on the thread that built it, and the image's own reference
// keeps each such payload shared, so any run's write clones it rather than
// writing the image in place (a read may materialise it in place, which
// every later run then shares). The counters below are process-global
// relaxed atomics so parallel sweeps still aggregate correctly.
//
// Results invariant: every simulated cost in the system derives from sizes
// and counts, never from payload identity or materialisation, so sharing
// versus copying cannot change a single simulated timing, byte count or
// checksum. The golden sweep digest (tests/golden_sweep_test.cc) enforces
// this.
#ifndef SRC_BASE_PAGE_REF_H_
#define SRC_BASE_PAGE_REF_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/base/page_data.h"
#include "src/base/types.h"

namespace accent {

// Process-global tallies of physical payload work (simulation-invisible;
// documented in docs/OBSERVABILITY.md). All relaxed atomics: exact
// per-thread attribution is not needed, totals are.
struct PageCounterSnapshot {
  std::uint64_t payload_allocs = 0;      // payloads made (one allocation each)
  std::uint64_t payload_frees = 0;       // payloads whose last holder released them
  std::uint64_t page_bytes_copied = 0;   // bytes duplicated payload-to-payload
  std::uint64_t payload_shares = 0;      // copies served by refcount bumps
  std::uint64_t cow_breaks = 0;          // writes that had to clone a shared page
  std::uint64_t pattern_pages_materialized = 0;  // pattern payloads generated on first read

  // Payloads still alive (held by some PageRef). With every simulation
  // object destroyed this must return to its pre-trial value — the fuzzer's
  // leak oracle.
  std::uint64_t live_payloads() const { return payload_allocs - payload_frees; }
};

// Snapshot of the counters accumulated since process start / last Reset.
PageCounterSnapshot ReadPageCounters();
void ResetPageCounters();

class PageRef {
 public:
  // The zero page: no payload, reads as kPageSize zero bytes.
  PageRef() = default;

  // Takes ownership of `bytes` (implicit on purpose: existing call sites
  // hand prvalue PageData straight into the data plane without churn).
  // Empty bytes intern to the zero page.
  PageRef(PageData bytes);  // NOLINT(google-explicit-constructor)

  // The page MakePatternPage(seed) reads as, generated on its first read.
  static PageRef Pattern(std::uint64_t seed);

  PageRef(const PageRef& other);
  PageRef& operator=(const PageRef& other);
  PageRef(PageRef&&) noexcept = default;
  PageRef& operator=(PageRef&&) noexcept = default;

  bool IsZero() const { return data_ == nullptr; }

  // Payload bytes (materialising a pattern); the zero page yields a shared
  // empty vector, matching the old "empty == all zeros" PageData
  // convention byte-for-byte.
  const PageData& Bytes() const;

  std::uint8_t ByteAt(ByteCount offset) const;

  // Copy-on-write: clones the payload first if any other holder shares it;
  // a sole holder's unmaterialised pattern materialises in place.
  void WriteByte(ByteCount offset, std::uint8_t value);

  std::uint64_t IntegrityChecksum() const { return PageIntegrityChecksum(Bytes()); }

  // Strong 128-bit content identity (src/base/page_data.h), computed
  // lazily on first request and memoized on the payload — sharing a page
  // shares its memo, and code that never asks for a hash pays nothing, so
  // legacy timings are untouched. The zero page returns the interned
  // ZeroPageHash without ever materialising bytes. A sole-holder WriteByte
  // drops the memo; a COW break starts the clone's memo cold.
  PageHash Hash() const;

  // Materialises an owned deep copy (counted as copied bytes).
  PageData Clone() const;

  // Holders of this exact payload (0 for the zero page). Test/bench hook.
  long use_count() const { return data_ ? data_.use_count() : 0; }

  friend bool operator==(const PageRef& a, const PageRef& b) {
    // Same payload (or both the interned zero page) short-circuits; the
    // fallback is exact vector equality, identical to the old PageData
    // semantics (an empty page is not equal to a materialised all-zero one).
    return a.data_ == b.data_ || a.Bytes() == b.Bytes();
  }
  friend bool operator==(const PageRef& a, const PageData& b) {
    return a.Bytes() == b;
  }

 private:
  // A payload is the bytes plus the content-hash memo, allocated with its
  // control block in one make_shared. Payloads never cross threads, so
  // neither the materialisation nor the memo needs synchronisation.
  struct Payload {
    Payload(PageData page_bytes, std::uint64_t seed)
        : bytes(std::move(page_bytes)), pattern_seed(seed) {}
    ~Payload();  // counts the free
    Payload(const Payload&) = delete;
    Payload& operator=(const Payload&) = delete;

    // The bytes, generating an unmaterialised pattern's on first use.
    PageData& Materialized();

    PageData bytes;  // empty only while an unmaterialised pattern
    std::uint64_t pattern_seed = 0;
    PageHash hash;
    bool hash_ready = false;
  };

  static std::shared_ptr<Payload> MakePayload(PageData bytes, std::uint64_t pattern_seed = 0);

  std::shared_ptr<Payload> data_;  // null == interned zero page
};

// Drop-in overloads so page helpers accept either representation.
inline std::uint64_t PageIntegrityChecksum(const PageRef& page) {
  return page.IntegrityChecksum();
}
inline std::uint8_t PageByteAt(const PageRef& page, ByteCount offset) {
  return page.ByteAt(offset);
}
inline void PageWriteByte(PageRef& page, ByteCount offset, std::uint8_t value) {
  page.WriteByte(offset, value);
}
inline bool IsZeroPage(const PageRef& page) { return page.IsZero(); }

}  // namespace accent

#endif  // SRC_BASE_PAGE_REF_H_
