#include "src/vm/address_space.h"

#include <algorithm>

namespace accent {
namespace {

void CheckPageAligned(Addr begin, Addr end) {
  ACCENT_EXPECTS(begin < end);
  ACCENT_EXPECTS(begin % kPageSize == 0 && end % kPageSize == 0)
      << " range [" << begin << "," << end << ") not page aligned";
  ACCENT_EXPECTS(end <= kAddressSpaceLimit);
}

}  // namespace

void AddressSpace::Validate(Addr begin, Addr end) {
  CheckPageAligned(begin, end);
  bool mapped = false;  // BadMem throughout is absence from the AMap
  amap_.ForEachIn(begin, end, [&](const AMap::Interval&) { mapped = true; });
  ACCENT_EXPECTS(!mapped) << " validating over an existing mapping";
  mappings_.Assign(begin, end, MappingValue{nullptr, begin, 0, false});
  amap_.Set(begin, end, MemClass::kRealZero);
}

void AddressSpace::MapReal(Addr begin, Addr end, Segment* segment, ByteCount seg_offset,
                           bool copy_on_write) {
  CheckPageAligned(begin, end);
  ACCENT_EXPECTS(segment != nullptr && segment->kind() == SegmentKind::kReal);
  ACCENT_EXPECTS(seg_offset % kPageSize == 0);
  ACCENT_EXPECTS(seg_offset + (end - begin) <= segment->size());
  DropPrivatePages(begin, end);  // a new mapping supersedes old contents
  mappings_.Assign(begin, end, MappingValue{segment, begin, seg_offset, copy_on_write});
  amap_.Set(begin, end, MemClass::kReal);
}

void AddressSpace::MapImaginary(Addr begin, Addr end, Segment* segment, ByteCount seg_offset) {
  CheckPageAligned(begin, end);
  ACCENT_EXPECTS(segment != nullptr && segment->kind() == SegmentKind::kImaginary);
  ACCENT_EXPECTS(seg_offset % kPageSize == 0);
  ACCENT_EXPECTS(seg_offset + (end - begin) <= segment->size());
  DropPrivatePages(begin, end);  // a new mapping supersedes old contents
  mappings_.Assign(begin, end, MappingValue{segment, begin, seg_offset, false});
  amap_.Set(begin, end, MemClass::kImag);
}

void AddressSpace::Unmap(Addr begin, Addr end) {
  CheckPageAligned(begin, end);
  mappings_.Erase(begin, end);
  amap_.Set(begin, end, MemClass::kBad);
  DropPrivatePages(begin, end);
}

void AddressSpace::DropPrivatePages(Addr begin, Addr end) {
  private_pages_.EraseRange(PageOf(begin), PageOf(end));
  dirty_since_mark_.EraseRange(PageOf(begin), PageOf(end));
}

AddressSpace::ImagTarget AddressSpace::ImagTargetOf(Addr addr) const {
  ACCENT_EXPECTS(ClassOf(addr) == MemClass::kImag);
  const MappingValue* mapping = mappings_.Find(addr);
  ACCENT_CHECK(mapping != nullptr && mapping->segment != nullptr);
  ACCENT_CHECK(mapping->segment->kind() == SegmentKind::kImaginary);
  const IouRef& iou = mapping->segment->backing();
  const ByteCount seg_offset = SegOffsetOf(*mapping, RoundDownToPage(addr));
  return ImagTarget{iou, iou.offset + seg_offset};
}

PageIndex AddressSpace::ImagRunLength(PageIndex first, PageIndex max_pages) const {
  if (max_pages == 0 || ClassOf(PageBase(first)) != MemClass::kImag) {
    return 0;
  }
  const ImagTarget base = ImagTargetOf(PageBase(first));
  PageIndex run = 1;
  while (run < max_pages) {
    const Addr addr = PageBase(first + run);
    if (addr >= kAddressSpaceLimit || ClassOf(addr) != MemClass::kImag) {
      break;
    }
    const ImagTarget next = ImagTargetOf(addr);
    const bool contiguous = next.iou.backing_port == base.iou.backing_port &&
                            next.iou.segment == base.iou.segment &&
                            next.backer_offset == base.backer_offset + run * kPageSize;
    if (!contiguous) {
      break;
    }
    ++run;
  }
  return run;
}

PageRef AddressSpace::ReadPage(PageIndex page) const {
  if (const PageRef* found = private_pages_.Find(page)) {
    return *found;
  }
  const Addr addr = PageBase(page);
  const MemClass mem_class = ClassOf(addr);
  ACCENT_EXPECTS(mem_class != MemClass::kImag)
      << " reading unfetched imaginary page " << page;
  ACCENT_EXPECTS(mem_class != MemClass::kBad) << " reading unmapped page " << page;
  if (mem_class == MemClass::kRealZero) {
    return PageRef{};
  }
  const MappingValue* mapping = mappings_.Find(addr);
  ACCENT_CHECK(mapping != nullptr);
  if (mapping->segment == nullptr) {
    return PageRef{};  // zero-fill range already reclassified Real by a touch
  }
  return mapping->segment->ReadPage(PageOf(SegOffsetOf(*mapping, addr)));
}

std::uint8_t AddressSpace::ReadByte(Addr addr) const {
  return PageByteAt(ReadPage(PageOf(addr)), addr % kPageSize);
}

void AddressSpace::WriteByte(Addr addr, std::uint8_t value) {
  const PageIndex page = PageOf(addr);
  PageRef* found = private_pages_.FindMutable(page);
  ACCENT_EXPECTS(found != nullptr)
      << " write to non-private page " << page << " (pager must materialise it first)";
  PageWriteByte(*found, addr % kPageSize, value);
  dirty_since_mark_.Mark(page);
}

void AddressSpace::InstallPage(PageIndex page, PageRef data) {
  const Addr addr = PageBase(page);
  ACCENT_EXPECTS(ClassOf(addr) != MemClass::kBad) << " installing into unmapped page " << page;
  private_pages_.Store(page, std::move(data));
  amap_.Set(addr, addr + kPageSize, MemClass::kReal);
  dirty_since_mark_.Mark(page);  // new private contents since the mark
}

void AddressSpace::InstallRun(PageIndex first, std::span<const PageRef> pages) {
  const Addr begin = PageBase(first);
  const Addr end = PageBase(first + pages.size());
  CheckPageAligned(begin, end);
  ACCENT_EXPECTS(amap_.RangeAvoids(begin, end, MemClass::kBad))
      << " installing into unmapped pages [" << first << "," << PageOf(end) << ")";
  for (std::size_t i = 0; i < pages.size(); ++i) {
    private_pages_.Store(first + i, pages[i]);
    dirty_since_mark_.Mark(first + i);
  }
  amap_.Set(begin, end, MemClass::kReal);
}

bool AddressSpace::NeedsCopyOnWrite(PageIndex page) const {
  if (HasPrivatePage(page)) {
    return false;
  }
  const MappingValue* mapping = mappings_.Find(PageBase(page));
  return mapping != nullptr && mapping->segment != nullptr &&
         mapping->segment->kind() == SegmentKind::kReal;
}

std::vector<IouRef> AddressSpace::ImaginaryBackers() const {
  std::vector<IouRef> backers;
  mappings_.ForEach([&](const IntervalMap<MappingValue>::Interval& iv) {
    if (iv.value.segment == nullptr ||
        iv.value.segment->kind() != SegmentKind::kImaginary) {
      return;
    }
    const IouRef& iou = iv.value.segment->backing();
    const bool seen = std::any_of(backers.begin(), backers.end(), [&](const IouRef& b) {
      return b.backing_port == iou.backing_port && b.segment == iou.segment;
    });
    if (!seen) {
      backers.push_back(iou);
    }
  });
  return backers;
}

std::size_t AddressSpace::RebindBackers(const IouRef& from, const IouRef& to) {
  ACCENT_EXPECTS(to.valid());
  std::vector<Segment*> rebound;
  mappings_.ForEach([&](const IntervalMap<MappingValue>::Interval& iv) {
    Segment* segment = iv.value.segment;
    if (segment == nullptr || segment->kind() != SegmentKind::kImaginary) {
      return;
    }
    const IouRef& backing = segment->backing();
    if (backing.backing_port != from.backing_port || backing.segment != from.segment) {
      return;
    }
    if (std::find(rebound.begin(), rebound.end(), segment) != rebound.end()) {
      return;  // several mappings can share one stand-in segment
    }
    IouRef updated = to;
    updated.offset = backing.offset;  // VA-indexed on both ends
    segment->SetBacking(updated);
    rebound.push_back(segment);
  });
  return rebound.size();
}

std::vector<PageIndex> AddressSpace::RealPages() const {
  std::vector<PageIndex> pages;
  amap_.ForEach([&](const AMap::Interval& iv) {
    if (iv.value != MemClass::kReal) {
      return;
    }
    for (PageIndex page = PageOf(iv.begin); page < PageOf(iv.end); ++page) {
      pages.push_back(page);
    }
  });
  return pages;
}

}  // namespace accent
