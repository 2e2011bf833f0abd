// Sparse process address spaces.
//
// An Accent process addresses up to 4 GB; Lisp processes validate all of it
// at birth. Layout is therefore interval-based: a mapping node covers any
// range at O(1) cost, and only pages that have actually been materialised
// (written zero-fill pages, copy-on-write copies, fetched imaginary pages,
// migrated-in data) consume real storage in the private page store.
//
// Two structures are maintained side by side:
//   - mappings_: where each range's data *originates* (a segment + offset,
//     zero-fill, or an imaginary backing) — fixed at map time;
//   - amap_:     the *current* accessibility of each page (section 2.3),
//     which faults update at page granularity (an ImagMem page becomes
//     RealMem once fetched; a RealZeroMem page becomes RealMem once
//     touched).
//
// The address space is the data plane only: it never charges simulated
// time. The Pager (pager.h) drives faults and owns all timing.
#ifndef SRC_VM_ADDRESS_SPACE_H_
#define SRC_VM_ADDRESS_SPACE_H_

#include <map>
#include <span>
#include <vector>

#include "src/base/interval_map.h"
#include "src/base/page_data.h"
#include "src/base/page_ref.h"
#include "src/base/page_store.h"
#include "src/base/types.h"
#include "src/ipc/message.h"
#include "src/vm/amap.h"
#include "src/vm/dirty_bitmap.h"
#include "src/vm/segment.h"

namespace accent {

class AddressSpace {
 public:
  AddressSpace(SpaceId id, HostId host) : id_(id), host_(host) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  SpaceId id() const { return id_; }
  HostId host() const { return host_; }

  // --- layout -----------------------------------------------------------------
  // Validates [begin, end) as zero-filled memory (RealZeroMem). The range
  // must be page-aligned and previously BadMem.
  void Validate(Addr begin, Addr end);

  // Maps [begin, end) to a real segment (program image, file) at
  // `seg_offset`. `copy_on_write` shares the segment pages until written.
  void MapReal(Addr begin, Addr end, Segment* segment, ByteCount seg_offset,
               bool copy_on_write);

  // Maps [begin, end) to an imaginary segment (its IouRef names the backer).
  void MapImaginary(Addr begin, Addr end, Segment* segment, ByteCount seg_offset);

  void Unmap(Addr begin, Addr end);

  // --- accessibility ------------------------------------------------------------
  const AMap& amap() const { return amap_; }
  MemClass ClassOf(Addr addr) const { return amap_.ClassOf(addr); }

  struct ImagTarget {
    IouRef iou;               // backing port + backer segment id
    ByteCount backer_offset;  // page-aligned offset within the backer object
  };
  // Backing target for an ImagMem page. Precondition: ClassOf is kImag.
  ImagTarget ImagTargetOf(Addr addr) const;

  // Length (in pages, up to max_pages) of the run of still-imaginary pages
  // starting at `first` that map contiguously into the same backer.
  PageIndex ImagRunLength(PageIndex first, PageIndex max_pages) const;

  // --- data plane ------------------------------------------------------------------
  // Reads the current contents of a page as a shared reference (no byte
  // copy). Precondition: the page is not ImagMem (fetch it through the
  // pager first).
  PageRef ReadPage(PageIndex page) const;
  std::uint8_t ReadByte(Addr addr) const;

  // Writes a byte into the private store. Precondition: the page is private
  // (the pager materialises pages before a write completes). If the page's
  // payload is shared, the write clones it first (copy-on-write).
  void WriteByte(Addr addr, std::uint8_t value);

  // Installs page contents materialised by the pager (zero-fill, COW copy,
  // imaginary fetch, migration insert) and reclassifies the page RealMem.
  void InstallPage(PageIndex page, PageRef data);

  // InstallPage for the consecutive pages from `first`, sharing `pages`'
  // payloads, with one reclassification for the whole run.
  void InstallRun(PageIndex first, std::span<const PageRef> pages);

  bool HasPrivatePage(PageIndex page) const { return private_pages_.Contains(page); }

  // True when writes to `page` must copy from an origin segment first.
  bool NeedsCopyOnWrite(PageIndex page) const;

  // --- statistics (Table 4-1 / 4-3 inputs) -------------------------------------------
  ByteCount RealBytes() const { return amap_.BytesOf(MemClass::kReal); }
  ByteCount RealZeroBytes() const { return amap_.BytesOf(MemClass::kRealZero); }
  ByteCount ImagBytes() const { return amap_.BytesOf(MemClass::kImag); }
  ByteCount TotalValidatedBytes() const { return amap_.TotalMappedBytes(); }
  std::size_t map_entries() const { return amap_.entry_count(); }

  // Distinct pages the pager has been asked to access.
  void NoteTouched(PageIndex page) { touched_.Mark(page); }
  std::size_t touched_page_count() const { return touched_.count(); }

  // --- write tracking (pre-copy migration support) -----------------------------
  // Pages written since the last MarkAllClean(), in ascending order. The
  // iterative pre-copy rounds (Theimer's V system, section 5 of the
  // paper; docs/INTERNALS.md section 13) re-ship exactly these.
  std::vector<PageIndex> DirtyPages() const { return dirty_since_mark_.ToVector(); }
  void MarkAllClean() { dirty_since_mark_.Clear(); }
  std::size_t dirty_count() const { return dirty_since_mark_.count(); }
  bool IsDirty(PageIndex page) const { return dirty_since_mark_.Test(page); }

  // Pre-copy arms tracking for the life of the transfer. While armed, the
  // first write to a clean page is an intercepted write fault — the real
  // kernel would take a protection trap there to set the bitmap bit — and
  // the pager charges it. Disarmed spaces stay byte-identical to the seed.
  void ArmWriteTracking() { write_tracking_ = true; }
  void DisarmWriteTracking() { write_tracking_ = false; }
  bool write_tracking() const { return write_tracking_; }
  // True when a write to `addr` would trip the tracking trap right now: the
  // page is clean and was otherwise writable, so the armed write-protect bit
  // forces an extra fault. Non-resident writes set the bit inside the fault
  // handler they are already in and trip nothing extra.
  bool WriteIsTracked(Addr addr) const {
    return write_tracking_ && !dirty_since_mark_.Test(PageOf(addr));
  }
  void NoteTrackedWriteFault() { ++tracked_write_faults_; }
  std::uint64_t tracked_write_faults() const { return tracked_write_faults_; }

  // --- content-hash hints (docs/INTERNALS.md §15) ------------------------------
  // Sparse per-page hints copied off the RIMAS hash riders at insertion:
  // the content hash the owed page *will* have once pulled. The pager's
  // hash-probe fault walk consults these; a page without a hint always
  // takes the classic origin pull. Hints are advisory — content identity is
  // re-verified against actual bytes wherever a hint is acted on.
  void SetPageHashHint(PageIndex page, const PageHash& hash) { hash_hints_[page] = hash; }
  const PageHash* HashHintOf(PageIndex page) const {
    auto it = hash_hints_.find(page);
    return it != hash_hints_.end() ? &it->second : nullptr;
  }
  std::size_t hash_hint_count() const { return hash_hints_.size(); }

  // Distinct imaginary backers still referenced (for death notification).
  std::vector<IouRef> ImaginaryBackers() const;

  // Chain collapse: repoints every mapped imaginary segment backed by
  // `from` (matched on port + segment) at `to`, keeping each segment's
  // original offset — both objects are VA-indexed, so offsets carry over.
  // Returns the number of distinct segments rebound.
  std::size_t RebindBackers(const IouRef& from, const IouRef& to);

  // All RealMem pages in ascending order (excision walks these).
  std::vector<PageIndex> RealPages() const;

 private:
  struct MappingValue {
    Segment* segment = nullptr;  // null => zero-fill validation
    Addr va_anchor = 0;          // segment offset of va = seg_anchor + (va - va_anchor)
    ByteCount seg_anchor = 0;
    bool copy_on_write = false;

    bool operator==(const MappingValue& o) const {
      return segment == o.segment && va_anchor == o.va_anchor &&
             seg_anchor == o.seg_anchor && copy_on_write == o.copy_on_write;
    }
  };

  ByteCount SegOffsetOf(const MappingValue& mapping, Addr addr) const {
    return mapping.seg_anchor + (addr - mapping.va_anchor);
  }

  // Discards private page contents in [begin, end): a fresh mapping or an
  // unmap supersedes whatever the process had materialised there.
  void DropPrivatePages(Addr begin, Addr end);

  SpaceId id_;
  HostId host_;
  IntervalMap<MappingValue> mappings_;
  AMap amap_;
  // Zero pages are *present* entries here (a materialised zero-fill page is
  // distinct from an untouched one), unlike the sparse Segment store.
  PageStore private_pages_;
  DirtyBitmap touched_;
  DirtyBitmap dirty_since_mark_;
  std::map<PageIndex, PageHash> hash_hints_;
  bool write_tracking_ = false;
  std::uint64_t tracked_write_faults_ = 0;
};

}  // namespace accent

#endif  // SRC_VM_ADDRESS_SPACE_H_
