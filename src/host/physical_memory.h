// Physical page-frame pool of one host.
//
// Tracks which (address space, page) pairs are resident, in LRU order, with
// dirty bits. Under Accent physical memory doubles as a disk cache — a fact
// the paper leans on to explain why resident-set shipment drags along stale
// file pages (section 4.2.3) — so residency here is exactly what the
// resident-set migration strategy samples at migration time.
//
// Layout: one slot-indexed frame table. Every resident frame sits on two
// intrusive doubly-linked lists, the host-wide LRU order and its space's
// chain, and an open-addressing index (linear probing, backward-shift
// deletion) maps (space, page) to its slot. Freed slots go on a free list.
// The table and the index grow by doubling with the pages actually
// resident, never from frame_count, so a steady-state insert allocates
// nothing, ResidentCount reads the space's count, and PagesOf and
// RemoveSpace visit only the space's own frames.
#ifndef SRC_HOST_PHYSICAL_MEMORY_H_
#define SRC_HOST_PHYSICAL_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/base/types.h"

namespace accent {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::size_t frame_count);

  struct Eviction {
    SpaceId space;
    PageIndex page = 0;
    bool dirty = false;
  };

  // Makes (space, page) resident, most-recently-used. If the pool is full,
  // the least-recently-used frame is reclaimed and returned so the caller
  // can account a page-out for dirty victims. Inserting an already-resident
  // page just refreshes recency/dirtiness.
  std::optional<Eviction> Insert(SpaceId space, PageIndex page, bool dirty);

  bool Contains(SpaceId space, PageIndex page) const {
    return index_[FindBucket(space, page)] != kNoSlot;
  }

  // Moves the page to most-recently-used if it is resident; returns whether
  // it was (one probe serves both the residency test and the refresh).
  bool Touch(SpaceId space, PageIndex page);

  // Marks a resident page dirty. Precondition: resident.
  void MarkDirty(SpaceId space, PageIndex page);

  bool IsDirty(SpaceId space, PageIndex page) const;

  // Drops one page (no writeback accounting; caller decides).
  void Remove(SpaceId space, PageIndex page);

  // Drops every page of `space` (process excision or death). Returns how
  // many pages it dropped.
  std::size_t RemoveSpace(SpaceId space);

  // Resident pages of `space` in ascending page order (the resident set).
  std::vector<PageIndex> PagesOf(SpaceId space) const;

  std::size_t ResidentCount(SpaceId space) const;
  std::size_t used_frames() const { return used_; }
  std::size_t frame_count() const { return frame_count_; }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  struct Frame {
    SpaceId space;
    PageIndex page = 0;
    Slot newer = kNoSlot;  // LRU neighbours; a free slot chains on `older`
    Slot older = kNoSlot;
    Slot chain_prev = kNoSlot;  // neighbours on the space's chain
    Slot chain_next = kNoSlot;
    bool dirty = false;
  };
  struct Chain {
    Slot head = kNoSlot;
    std::size_t count = 0;
  };

  // The bucket that holds (space, page), or the empty bucket that ends its
  // probe sequence.
  std::size_t FindBucket(SpaceId space, PageIndex page) const;
  std::size_t HomeBucket(SpaceId space, PageIndex page) const;
  // Empties `bucket`, shifting later entries of its probe run back.
  void EraseBucket(std::size_t bucket);
  void GrowIndex();
  void LinkMostRecent(Slot slot);
  void UnlinkLru(Slot slot);
  // Unlinks a frame from the LRU order and its chain, erases its index
  // bucket and frees its slot.
  void Release(Slot slot, std::size_t bucket);

  std::size_t frame_count_;
  std::vector<Frame> frames_;
  std::vector<Slot> index_;  // power-of-two buckets, kNoSlot = empty
  int index_shift_;          // 64 - log2(index_.size())
  std::unordered_map<SpaceId, Chain> chains_;  // spaces with resident pages
  Slot most_recent_ = kNoSlot;
  Slot least_recent_ = kNoSlot;
  Slot free_ = kNoSlot;
  std::size_t used_ = 0;
};

}  // namespace accent

#endif  // SRC_HOST_PHYSICAL_MEMORY_H_
