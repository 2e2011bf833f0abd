#include "src/vm/amap.h"

namespace accent {

const char* MemClassName(MemClass mem_class) {
  switch (mem_class) {
    case MemClass::kBad: return "BadMem";
    case MemClass::kRealZero: return "RealZeroMem";
    case MemClass::kReal: return "RealMem";
    case MemClass::kImag: return "ImagMem";
  }
  return "?";
}

void AMap::Set(Addr begin, Addr end, MemClass mem_class) {
  ACCENT_EXPECTS(begin < end);
  if (mem_class == MemClass::kBad) {
    map_.Erase(begin, end);
    return;
  }
  map_.Assign(begin, end, mem_class);
}

MemClass AMap::ClassOf(Addr addr) const {
  const MemClass* found = map_.Find(addr);
  return found == nullptr ? MemClass::kBad : *found;
}

bool AMap::RangeAvoids(Addr begin, Addr end, MemClass avoided) const {
  bool hit = false;
  if (avoided == MemClass::kBad) {
    return map_.Covers(begin, end);
  }
  map_.ForEachIn(begin, end, [&](const Interval& iv) {
    if (iv.value == avoided) {
      hit = true;
    }
  });
  return !hit;
}

ByteCount AMap::BytesOf(MemClass mem_class) const {
  ByteCount total = 0;
  map_.ForEach([&](const Interval& iv) {
    if (iv.value == mem_class) {
      total += iv.size();
    }
  });
  return total;
}

bool operator==(const AMap& a, const AMap& b) { return a.map_ == b.map_; }

}  // namespace accent
