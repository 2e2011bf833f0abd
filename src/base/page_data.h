// Page contents.
//
// The simulator moves *real* bytes so that tests can prove end-to-end data
// integrity under every migration strategy (a migrated process must read
// exactly what it wrote at the source). An empty PageData means "all
// zeros" — the common case for RealZeroMem — so validating gigabytes of
// zero-fill memory allocates nothing.
#ifndef SRC_BASE_PAGE_DATA_H_
#define SRC_BASE_PAGE_DATA_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/base/types.h"

namespace accent {

using PageData = std::vector<std::uint8_t>;  // empty == zero page, else kPageSize bytes

// Deterministic non-zero page contents derived from `seed`: 64 words, none
// of them zero. PageRef::Pattern (src/base/page_ref.h) defers the call to
// the page's first read.
PageData MakePatternPage(std::uint64_t seed);

// Weak 64-bit checksum over the page's 64-bit words (zero pages sum as
// kPageSize zero bytes): four independent multiply-xorshift lanes folded
// by an avalanche mix. This is an *integrity tripwire* — cheap corruption
// detection in tests and oracles — and must never be used as content
// identity: 64 bits with no collision resistance are forgeable. Content
// identity is PageHash below; the distinct names keep the two apart at
// call sites. Its values are never serialized: every verdict compares two
// values computed by one process.
std::uint64_t PageIntegrityChecksum(const PageData& page);

// Strong 128-bit content identity for the cluster page service. Two pages
// with equal hashes are treated as byte-identical across hosts, so the
// hash must be collision-resistant against the simulator's page universe
// (MakePatternPage streams + mutations); every word passes through a
// full-avalanche murmur3 mix, where the integrity checksum above only
// multiplies and shifts until its final fold.
struct PageHash {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const PageHash& a, const PageHash& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const PageHash& a, const PageHash& b) { return !(a == b); }
  friend bool operator<(const PageHash& a, const PageHash& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

// Hashes the page contents (zero pages hash as kPageSize zero bytes, so
// an empty PageData and a materialised all-zero page agree). Results only
// compare hashes for equality, yet the values are pinned
// (tests/page_service_test.cc) so that changing how the digest loads or
// mixes its words is a deliberate act: the content cache and the page
// directory bucket a key by its low word alone, which spreads only while
// every word is fully mixed, and the collision sampling beside the pin
// vouches for this digest only.
PageHash ComputePageHash(const PageData& page);

// The interned hash of the all-zero page: ComputePageHash({}) computed
// once per process.
const PageHash& ZeroPageHash();

// Byte at `offset` (zero pages read as 0). Precondition: offset < kPageSize.
std::uint8_t PageByteAt(const PageData& page, ByteCount offset);

// Writes `value` at `offset`, materialising a zero page if needed.
void PageWriteByte(PageData& page, ByteCount offset, std::uint8_t value);

inline bool IsZeroPage(const PageData& page) { return page.empty(); }

}  // namespace accent

#endif  // SRC_BASE_PAGE_DATA_H_
