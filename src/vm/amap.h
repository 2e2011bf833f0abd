// Accessibility Maps (AMaps) — section 2.3 of the paper.
//
// An AMap answers "how far away is this memory?" for any virtual address
// range. Accent defines four distances:
//   RealZeroMem — validated, never touched; conceptually zero-filled;
//                 immediately accessible (a FillZero fault materialises it).
//   RealMem     — present in physical memory or on the local disk;
//                 moderately accessible.
//   ImagMem     — mapped to an imaginary segment; access goes through the
//                 IPC system to a backing port; distantly accessible.
//   BadMem      — not validated; infinitely distant (addressing error).
//
// AMaps guide the NetMsgServer's fragmentation (only RealMem is physically
// shipped) and let servers avoid the deadlock of touching port-backed pages
// while holding the system critical section.
#ifndef SRC_VM_AMAP_H_
#define SRC_VM_AMAP_H_

#include <cstdint>

#include "src/base/interval_map.h"
#include "src/base/types.h"

namespace accent {

enum class MemClass : std::uint8_t {
  kBad = 0,       // unmapped; represented by absence in the map
  kRealZero = 1,  // validated, untouched, zero-filled
  kReal = 2,      // data in physical memory or on local disk
  kImag = 3,      // backed by an IPC port (possibly remote)
};

const char* MemClassName(MemClass mem_class);

class AMap {
 public:
  using Interval = IntervalMap<MemClass>::Interval;

  // Records [begin, end) as `mem_class`. kBad erases the range instead
  // (absence == BadMem). A range already of that class is left untouched.
  void Set(Addr begin, Addr end, MemClass mem_class);

  // Accessibility of a single address.
  MemClass ClassOf(Addr addr) const;

  // True when every byte of [begin, end) is at least as accessible as
  // `required` (ordering: RealZero > Real > Imag > Bad by "closeness";
  // in practice callers ask "is the whole range free of ImagMem?").
  bool RangeAvoids(Addr begin, Addr end, MemClass avoided) const;

  template <typename Fn>
  void ForEachIn(Addr begin, Addr end, Fn fn) const {
    map_.ForEachIn(begin, end, fn);
  }
  template <typename Fn>
  void ForEach(Fn fn) const {
    map_.ForEach(fn);
  }

  ByteCount BytesOf(MemClass mem_class) const;
  ByteCount TotalMappedBytes() const { return map_.TotalBytes(); }
  std::size_t entry_count() const { return map_.interval_count(); }
  bool empty() const { return map_.empty(); }

  // Serialized wire footprint given a per-entry descriptor size.
  ByteCount SerializedSize(ByteCount entry_bytes) const {
    return entry_bytes * entry_count();
  }

  friend bool operator==(const AMap& a, const AMap& b);

 private:
  IntervalMap<MemClass> map_;
};

}  // namespace accent

#endif  // SRC_VM_AMAP_H_
