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

const PageData& EmptyPage() {
  static const PageData empty;
  return empty;
}

}  // namespace

// Every payload allocation routes through here so the matching release is
// counted by the deleter — allocs minus frees is the live-payload gauge the
// leak oracles read. A fresh payload always starts with a cold hash memo,
// including clones of an already-hashed payload (COW breaks change bytes).
std::shared_ptr<PageRef::Payload> PageRef::MakePayload(PageData bytes) {
  g_payload_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<Payload>(new Payload(std::move(bytes)), [](Payload* payload) {
    g_payload_frees.fetch_add(1, std::memory_order_relaxed);
    delete payload;
  });
}

PageCounterSnapshot ReadPageCounters() {
  PageCounterSnapshot snap;
  snap.payload_allocs = g_payload_allocs.load(std::memory_order_relaxed);
  snap.payload_frees = g_payload_frees.load(std::memory_order_relaxed);
  snap.page_bytes_copied = g_page_bytes_copied.load(std::memory_order_relaxed);
  snap.payload_shares = g_payload_shares.load(std::memory_order_relaxed);
  snap.cow_breaks = g_cow_breaks.load(std::memory_order_relaxed);
  return snap;
}

void ResetPageCounters() {
  g_payload_allocs.store(0, std::memory_order_relaxed);
  g_payload_frees.store(0, std::memory_order_relaxed);
  g_page_bytes_copied.store(0, std::memory_order_relaxed);
  g_payload_shares.store(0, std::memory_order_relaxed);
  g_cow_breaks.store(0, std::memory_order_relaxed);
}

PageRef::PageRef(PageData bytes) {
  ACCENT_EXPECTS(bytes.empty() || bytes.size() == kPageSize);
  if (!bytes.empty()) {
    data_ = MakePayload(std::move(bytes));
  }
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

const PageData& PageRef::Bytes() const { return data_ ? data_->bytes : EmptyPage(); }

std::uint8_t PageRef::ByteAt(ByteCount offset) const {
  ACCENT_EXPECTS(offset < kPageSize);
  return data_ ? data_->bytes[offset] : 0;
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
    data_ = MakePayload(data_->bytes);
    g_page_bytes_copied.fetch_add(kPageSize, std::memory_order_relaxed);
    g_cow_breaks.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Sole holder mutating in place: any memoized content hash is stale.
    data_->hash_ready.store(false, std::memory_order_relaxed);
  }
  data_->bytes[offset] = value;
}

PageHash PageRef::Hash() const {
  if (data_ == nullptr) {
    return ZeroPageHash();
  }
  PageHash hash;
  if (data_->hash_ready.load(std::memory_order_acquire)) {
    hash.lo = data_->hash_lo.load(std::memory_order_relaxed);
    hash.hi = data_->hash_hi.load(std::memory_order_relaxed);
    return hash;
  }
  hash = ComputePageHash(data_->bytes);
  data_->hash_lo.store(hash.lo, std::memory_order_relaxed);
  data_->hash_hi.store(hash.hi, std::memory_order_relaxed);
  data_->hash_ready.store(true, std::memory_order_release);
  return hash;
}

PageData PageRef::Clone() const {
  if (data_ == nullptr) {
    return PageData{};
  }
  g_page_bytes_copied.fetch_add(kPageSize, std::memory_order_relaxed);
  return data_->bytes;
}

}  // namespace accent
