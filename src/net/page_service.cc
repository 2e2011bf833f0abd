#include "src/net/page_service.h"

#include <algorithm>

#include "src/base/check.h"

namespace accent {

ContentCache::ContentCache(std::int64_t capacity_pages)
    : capacity_pages_(capacity_pages) {
  ACCENT_EXPECTS(capacity_pages >= 1);
}

bool ContentCache::InsertVerified(const PageHash& hash, const PageRef& page) {
  if (page.IsZero()) {
    return false;  // the pager fills zero pages locally; never cache them
  }
  if (page.Hash() != hash) {
    // Forged identity: the bytes do not hash to the claimed key. Served
    // blindly this would hand some process the wrong page contents, so the
    // insertion is refused and the counter feeds the bench's
    // zero-integrity-failures gate.
    ++stats_.hash_mismatches;
    return false;
  }
  const auto [it, inserted] = entries_.try_emplace(hash);
  if (!inserted) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return true;  // already resident: refresh recency only
  }
  lru_.push_front(hash);
  it->second = Entry{page, lru_.begin()};
  ++stats_.insertions;
  EvictToCapacity();
  return entries_.count(hash) != 0;
}

const PageRef* ContentCache::Lookup(const PageHash& hash) {
  auto it = entries_.find(hash);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second.page;
}

bool ContentCache::Contains(const PageHash& hash) const {
  return entries_.count(hash) != 0;
}

void ContentCache::EvictToCapacity() {
  while (static_cast<std::int64_t>(entries_.size()) > capacity_pages_) {
    const PageHash victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

namespace {

// The first holding at or after `host` in a HostId-ordered list.
template <typename Holdings>
auto HoldingAtOrAfter(Holdings& holdings, HostId host) {
  return std::lower_bound(holdings.begin(), holdings.end(), host,
                          [](const auto& holding, HostId id) { return holding.host < id; });
}

}  // namespace

void PageDirectory::RecordHolder(const PageHash& hash, HostId host, SimTime now) {
  std::vector<Holding>& holdings = holders_[hash];
  const auto it = HoldingAtOrAfter(holdings, host);
  if (it != holdings.end() && it->host == host) {
    it->visible_at = now + propagation_;
  } else {
    holdings.insert(it, Holding{host, now + propagation_});
  }
  ++holders_recorded_;
}

void PageDirectory::DropHost(HostId host) {
  for (auto it = holders_.begin(); it != holders_.end();) {
    std::vector<Holding>& holdings = it->second;
    const auto held = HoldingAtOrAfter(holdings, host);
    if (held != holdings.end() && held->host == host) {
      holdings.erase(held);
    }
    it = holdings.empty() ? holders_.erase(it) : std::next(it);
  }
  ++hosts_dropped_;
}

std::optional<HostId> PageDirectory::NearestHolder(const PageHash& hash, SimTime now,
                                                   HostId exclude_a,
                                                   HostId exclude_b) const {
  auto it = holders_.find(hash);
  if (it == holders_.end()) {
    return std::nullopt;
  }
  std::optional<HostId> best;
  double best_rank = 0.0;
  // Holders iterate in HostId order, so at equal rank the lower id wins
  // and the choice is canonical.
  for (const Holding& holding : it->second) {
    if (holding.host == exclude_a || holding.host == exclude_b || holding.visible_at > now) {
      continue;
    }
    const auto rank_it = ranks_.find(holding.host);
    const double rank = rank_it != ranks_.end() ? rank_it->second : 0.0;
    if (!best.has_value() || rank < best_rank) {
      best = holding.host;
      best_rank = rank;
    }
  }
  return best;
}

PageService::PageService(HostId host, PageDirectory* directory,
                         std::int64_t capacity_pages)
    : host_(host), directory_(directory), cache_(capacity_pages) {
  ACCENT_EXPECTS(directory != nullptr);
}

PageHash PageService::Publish(const PageRef& page, SimTime now) {
  const PageHash hash = page.Hash();
  if (page.IsZero()) {
    return hash;
  }
  if (cache_.InsertVerified(hash, page)) {
    directory_->RecordHolder(hash, host_, now);
  }
  return hash;
}

}  // namespace accent
