#include "src/base/page_ref.h"

#include <atomic>
#include <utility>

#include "src/base/check.h"

namespace accent {
namespace {

std::atomic<std::uint64_t> g_payload_allocs{0};
std::atomic<std::uint64_t> g_payload_frees{0};
std::atomic<std::uint64_t> g_page_bytes_copied{0};
std::atomic<std::uint64_t> g_payload_shares{0};
std::atomic<std::uint64_t> g_cow_breaks{0};
std::atomic<std::uint64_t> g_pattern_pages_materialized{0};

const PageData& EmptyPage() {
  static const PageData empty;
  return empty;
}

}  // namespace

// Every payload allocation routes through here and every payload counts
// its own release, so allocs minus frees is the live-payload gauge the
// leak oracles read. A fresh payload always starts with a cold hash memo,
// including clones of an already-hashed payload (COW breaks change bytes).
std::shared_ptr<PageRef::Payload> PageRef::MakePayload(PageData bytes, std::uint64_t pattern_seed) {
  g_payload_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<Payload>(std::move(bytes), pattern_seed);
}

PageRef::Payload::~Payload() { g_payload_frees.fetch_add(1, std::memory_order_relaxed); }

PageData& PageRef::Payload::Materialized() {
  if (bytes.empty()) {
    bytes = MakePatternPage(pattern_seed);
    g_pattern_pages_materialized.fetch_add(1, std::memory_order_relaxed);
  }
  return bytes;
}

PageCounterSnapshot ReadPageCounters() {
  PageCounterSnapshot snap;
  snap.payload_allocs = g_payload_allocs.load(std::memory_order_relaxed);
  snap.payload_frees = g_payload_frees.load(std::memory_order_relaxed);
  snap.page_bytes_copied = g_page_bytes_copied.load(std::memory_order_relaxed);
  snap.payload_shares = g_payload_shares.load(std::memory_order_relaxed);
  snap.cow_breaks = g_cow_breaks.load(std::memory_order_relaxed);
  snap.pattern_pages_materialized = g_pattern_pages_materialized.load(std::memory_order_relaxed);
  return snap;
}

void ResetPageCounters() {
  g_payload_allocs.store(0, std::memory_order_relaxed);
  g_payload_frees.store(0, std::memory_order_relaxed);
  g_page_bytes_copied.store(0, std::memory_order_relaxed);
  g_payload_shares.store(0, std::memory_order_relaxed);
  g_cow_breaks.store(0, std::memory_order_relaxed);
  g_pattern_pages_materialized.store(0, std::memory_order_relaxed);
}

PageRef::PageRef(PageData bytes) {
  ACCENT_EXPECTS(bytes.empty() || bytes.size() == kPageSize);
  if (!bytes.empty()) {
    data_ = MakePayload(std::move(bytes));
  }
}

PageRef PageRef::Pattern(std::uint64_t seed) {
  PageRef page;
  page.data_ = MakePayload(PageData{}, seed);
  return page;
}

PageRef::PageRef(const PageRef& other) {
  if (other.data_ == nullptr) {
    return;  // zero page: nothing to share or copy
  }
  data_ = other.data_;
  g_payload_shares.fetch_add(1, std::memory_order_relaxed);
}

PageRef& PageRef::operator=(const PageRef& other) {
  if (this != &other) {
    *this = PageRef(other);  // route through the counting copy constructor
  }
  return *this;
}

const PageData& PageRef::Bytes() const { return data_ ? data_->Materialized() : EmptyPage(); }

std::uint8_t PageRef::ByteAt(ByteCount offset) const {
  ACCENT_EXPECTS(offset < kPageSize);
  return data_ ? data_->Materialized()[offset] : 0;
}

void PageRef::WriteByte(ByteCount offset, std::uint8_t value) {
  ACCENT_EXPECTS(offset < kPageSize);
  if (data_ == nullptr) {
    if (value == 0) {
      return;  // zero write into the zero page: stay interned
    }
    data_ = MakePayload(PageData(kPageSize, std::uint8_t{0}));
  } else if (data_.use_count() > 1) {
    // Copy-on-write: another holder shares this payload, clone before the
    // first diverging write (the old data plane copied eagerly instead).
    // The shared payload materialises first, for its other holders too.
    data_ = MakePayload(data_->Materialized());
    g_page_bytes_copied.fetch_add(kPageSize, std::memory_order_relaxed);
    g_cow_breaks.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Sole holder mutating in place: any memoized content hash is stale.
    data_->Materialized();
    data_->hash_ready = false;
  }
  data_->bytes[offset] = value;
}

PageHash PageRef::Hash() const {
  if (data_ == nullptr) {
    return ZeroPageHash();
  }
  if (!data_->hash_ready) {
    data_->hash = ComputePageHash(data_->Materialized());
    data_->hash_ready = true;
  }
  return data_->hash;
}

PageData PageRef::Clone() const {
  if (data_ == nullptr) {
    return PageData{};
  }
  g_page_bytes_copied.fetch_add(kPageSize, std::memory_order_relaxed);
  return data_->Materialized();
}

}  // namespace accent
