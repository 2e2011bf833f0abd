#include "src/host/physical_memory.h"

#include <algorithm>

#include "src/base/check.h"

namespace accent {

namespace {

constexpr std::size_t kInitialBuckets = 16;
constexpr int kInitialShift = 64 - 4;  // log2(kInitialBuckets) == 4

}  // namespace

PhysicalMemory::PhysicalMemory(std::size_t frame_count)
    : frame_count_(frame_count), index_(kInitialBuckets, kNoSlot), index_shift_(kInitialShift) {
  ACCENT_EXPECTS(frame_count > 0);
}

std::size_t PhysicalMemory::HomeBucket(SpaceId space, PageIndex page) const {
  // Fibonacci hashing: the multiply carries every key bit into the top bits
  // the shift keeps, so one space's consecutive pages spread out.
  const std::uint64_t key = space.value * 0x9e3779b97f4a7c15ull ^ page;
  return static_cast<std::size_t>((key * 0xbf58476d1ce4e5b9ull) >> index_shift_);
}

std::size_t PhysicalMemory::FindBucket(SpaceId space, PageIndex page) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t bucket = HomeBucket(space, page);; bucket = (bucket + 1) & mask) {
    const Slot slot = index_[bucket];
    if (slot == kNoSlot || (frames_[slot].page == page && frames_[slot].space == space)) {
      return bucket;
    }
  }
}

void PhysicalMemory::EraseBucket(std::size_t hole) {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t bucket = (hole + 1) & mask; index_[bucket] != kNoSlot;
       bucket = (bucket + 1) & mask) {
    const Frame& frame = frames_[index_[bucket]];
    // The entry moves back into the hole when the hole lies on its probe
    // path: its home is no nearer to it than the hole is.
    if (((bucket - HomeBucket(frame.space, frame.page)) & mask) >= ((bucket - hole) & mask)) {
      index_[hole] = index_[bucket];
      hole = bucket;
    }
  }
  index_[hole] = kNoSlot;
}

void PhysicalMemory::GrowIndex() {
  index_.assign(index_.size() * 2, kNoSlot);
  --index_shift_;
  for (Slot slot = most_recent_; slot != kNoSlot; slot = frames_[slot].older) {
    index_[FindBucket(frames_[slot].space, frames_[slot].page)] = slot;
  }
}

void PhysicalMemory::LinkMostRecent(Slot slot) {
  Frame& frame = frames_[slot];
  frame.newer = kNoSlot;
  frame.older = most_recent_;
  (most_recent_ != kNoSlot ? frames_[most_recent_].newer : least_recent_) = slot;
  most_recent_ = slot;
}

void PhysicalMemory::UnlinkLru(Slot slot) {
  const Frame& frame = frames_[slot];
  (frame.newer != kNoSlot ? frames_[frame.newer].older : most_recent_) = frame.older;
  (frame.older != kNoSlot ? frames_[frame.older].newer : least_recent_) = frame.newer;
}

void PhysicalMemory::Release(Slot slot, std::size_t bucket) {
  Frame& frame = frames_[slot];
  UnlinkLru(slot);
  auto chain = chains_.find(frame.space);
  (frame.chain_prev != kNoSlot ? frames_[frame.chain_prev].chain_next : chain->second.head) =
      frame.chain_next;
  if (frame.chain_next != kNoSlot) {
    frames_[frame.chain_next].chain_prev = frame.chain_prev;
  }
  if (--chain->second.count == 0) {
    chains_.erase(chain);
  }
  EraseBucket(bucket);
  frame.older = free_;
  free_ = slot;
  --used_;
}

std::optional<PhysicalMemory::Eviction> PhysicalMemory::Insert(SpaceId space, PageIndex page,
                                                               bool dirty) {
  std::size_t bucket = FindBucket(space, page);
  if (index_[bucket] != kNoSlot) {
    const Slot slot = index_[bucket];
    UnlinkLru(slot);
    LinkMostRecent(slot);
    frames_[slot].dirty = frames_[slot].dirty || dirty;
    return std::nullopt;
  }

  std::optional<Eviction> eviction;
  if (used_ >= frame_count_) {
    const Frame& victim = frames_[least_recent_];
    eviction = Eviction{victim.space, victim.page, victim.dirty};
    Release(least_recent_, FindBucket(victim.space, victim.page));
    bucket = FindBucket(space, page);  // the backward shift may have moved the probe's end
  } else if (2 * (used_ + 1) > index_.size()) {
    GrowIndex();
    bucket = FindBucket(space, page);
  }

  Slot slot = free_;
  if (slot != kNoSlot) {
    free_ = frames_[slot].older;
  } else {
    ACCENT_CHECK(frames_.size() < kNoSlot) << " frame table full";
    slot = static_cast<Slot>(frames_.size());
    frames_.emplace_back();
  }
  Chain& chain = chains_[space];
  frames_[slot] = Frame{space, page, kNoSlot, kNoSlot, kNoSlot, chain.head, dirty};
  if (chain.head != kNoSlot) {
    frames_[chain.head].chain_prev = slot;
  }
  chain.head = slot;
  ++chain.count;
  index_[bucket] = slot;
  LinkMostRecent(slot);
  ++used_;
  return eviction;
}

bool PhysicalMemory::Touch(SpaceId space, PageIndex page) {
  const Slot slot = index_[FindBucket(space, page)];
  if (slot == kNoSlot) {
    return false;
  }
  UnlinkLru(slot);
  LinkMostRecent(slot);
  return true;
}

void PhysicalMemory::MarkDirty(SpaceId space, PageIndex page) {
  const Slot slot = index_[FindBucket(space, page)];
  ACCENT_EXPECTS(slot != kNoSlot) << " dirtying non-resident page " << page;
  frames_[slot].dirty = true;
}

bool PhysicalMemory::IsDirty(SpaceId space, PageIndex page) const {
  const Slot slot = index_[FindBucket(space, page)];
  return slot != kNoSlot && frames_[slot].dirty;
}

void PhysicalMemory::Remove(SpaceId space, PageIndex page) {
  const std::size_t bucket = FindBucket(space, page);
  if (index_[bucket] != kNoSlot) {
    Release(index_[bucket], bucket);
  }
}

std::size_t PhysicalMemory::RemoveSpace(SpaceId space) {
  auto chain = chains_.find(space);
  if (chain == chains_.end()) {
    return 0;
  }
  const std::size_t count = chain->second.count;
  for (Slot slot = chain->second.head; slot != kNoSlot;) {
    Frame& frame = frames_[slot];
    const Slot next = frame.chain_next;
    UnlinkLru(slot);
    EraseBucket(FindBucket(space, frame.page));
    frame.older = free_;
    free_ = slot;
    slot = next;
  }
  used_ -= count;
  chains_.erase(chain);
  return count;
}

std::vector<PageIndex> PhysicalMemory::PagesOf(SpaceId space) const {
  std::vector<PageIndex> pages;
  auto chain = chains_.find(space);
  if (chain == chains_.end()) {
    return pages;
  }
  pages.reserve(chain->second.count);
  for (Slot slot = chain->second.head; slot != kNoSlot; slot = frames_[slot].chain_next) {
    pages.push_back(frames_[slot].page);
  }
  std::sort(pages.begin(), pages.end());
  return pages;
}

std::size_t PhysicalMemory::ResidentCount(SpaceId space) const {
  auto chain = chains_.find(space);
  return chain != chains_.end() ? chain->second.count : 0;
}

}  // namespace accent
