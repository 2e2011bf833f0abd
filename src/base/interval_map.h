// IntervalMap<V>: a sparse map from half-open address ranges [begin, end) to
// values, with automatic splitting and coalescing.
//
// This is the backbone of Accent's sparse 4 GB address spaces and of
// Accessibility Maps: validating gigabytes of zero-fill memory costs one
// interval, and accessibility queries over ranges walk only the mapped
// intervals.
//
// The intervals live in one sorted vector. A query is one binary search; an
// Assign or Erase is one binary search plus one splice that replaces the
// intervals it overlaps or touches with at most three (a left remnant, the
// new interval, a right remnant). An Assign at or past the last interval's
// end only extends or appends, so building a map in address order costs
// O(1) per interval.
//
// Invariants (relied upon everywhere):
//   - intervals are non-empty, pairwise disjoint, sorted by begin;
//   - no two adjacent intervals with equal values (they are coalesced).
// So the intervals are a function of the mapped bytes alone, whatever order
// of Assign and Erase produced them.
//
// Pointers from Find/FindMutable, and the Interval references ForEach hands
// its callback, last only until the next Assign, Erase or Clear; a ForEach or
// ForEachIn callback must not mutate the map it walks.
#ifndef SRC_BASE_INTERVAL_MAP_H_
#define SRC_BASE_INTERVAL_MAP_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/types.h"

namespace accent {

template <typename V>
class IntervalMap {
 public:
  struct Interval {
    Addr begin = 0;
    Addr end = 0;
    V value{};

    ByteCount size() const { return end - begin; }
    friend bool operator==(const Interval&, const Interval&) = default;
  };

  // Sets [begin, end) to `value`, overwriting any previous mappings there.
  void Assign(Addr begin, Addr end, V value) {
    ACCENT_EXPECTS(begin < end);
    if (items_.empty() || items_.back().end <= begin) {
      // At or past the end: extend the last interval or append one.
      if (!items_.empty() && items_.back().end == begin && items_.back().value == value) {
        items_.back().end = end;
      } else {
        items_.push_back(Interval{begin, end, std::move(value)});
      }
      return;
    }
    std::size_t lo = FirstEndingAfter(begin);
    if (lo < items_.size() && items_[lo].begin <= begin && end <= items_[lo].end &&
        items_[lo].value == value) {
      return;  // already that value throughout
    }
    // [lo, hi): the intervals overlapping [begin, end) or touching its ends.
    if (lo > 0 && items_[lo - 1].end == begin) {
      --lo;
    }
    std::size_t hi = lo;
    while (hi < items_.size() && items_[hi].begin <= end) {
      ++hi;
    }
    // The remnants of [lo, hi) outside [begin, end) survive, unless they
    // hold `value`: then the new interval absorbs them.
    const Interval* left = lo < hi && items_[lo].begin < begin ? &items_[lo] : nullptr;
    const Interval* right = lo < hi && items_[hi - 1].end > end ? &items_[hi - 1] : nullptr;
    Interval pieces[3];
    std::size_t count = 0;
    if (left != nullptr && left->value != value) {
      pieces[count++] = Interval{left->begin, begin, left->value};
    }
    pieces[count++] = Interval{left != nullptr && left->value == value ? left->begin : begin,
                               right != nullptr && right->value == value ? right->end : end,
                               value};
    if (right != nullptr && right->value != value) {
      pieces[count++] = Interval{end, right->end, right->value};
    }
    Splice(lo, hi, pieces, count);
  }

  // Removes all mappings intersecting [begin, end).
  void Erase(Addr begin, Addr end) {
    ACCENT_EXPECTS(begin < end);
    const std::size_t lo = FirstEndingAfter(begin);
    std::size_t hi = lo;
    while (hi < items_.size() && items_[hi].begin < end) {
      ++hi;
    }
    if (lo == hi) {
      return;
    }
    Interval pieces[2];
    std::size_t count = 0;
    if (items_[lo].begin < begin) {
      pieces[count++] = Interval{items_[lo].begin, begin, items_[lo].value};
    }
    if (items_[hi - 1].end > end) {
      pieces[count++] = Interval{end, items_[hi - 1].end, items_[hi - 1].value};
    }
    Splice(lo, hi, pieces, count);
  }

  void Clear() { items_.clear(); }

  // Returns the value covering `addr`, or nullptr if unmapped.
  const V* Find(Addr addr) const {
    const std::size_t i = FirstEndingAfter(addr);
    return i < items_.size() && items_[i].begin <= addr ? &items_[i].value : nullptr;
  }

  V* FindMutable(Addr addr) {
    return const_cast<V*>(std::as_const(*this).Find(addr));
  }

  // Returns the full interval covering `addr`, if any.
  std::optional<Interval> FindInterval(Addr addr) const {
    const std::size_t i = FirstEndingAfter(addr);
    if (i < items_.size() && items_[i].begin <= addr) {
      return items_[i];
    }
    return std::nullopt;
  }

  // Invokes fn(Interval) for every mapped interval intersecting
  // [begin, end), clipped to that window, in address order.
  template <typename Fn>
  void ForEachIn(Addr begin, Addr end, Fn fn) const {
    ACCENT_EXPECTS(begin <= end);
    for (std::size_t i = FirstEndingAfter(begin); i < items_.size() && items_[i].begin < end;
         ++i) {
      const Interval& iv = items_[i];
      Interval clipped{std::max(iv.begin, begin), std::min(iv.end, end), iv.value};
      if (clipped.begin < clipped.end) {
        fn(clipped);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Interval& iv : items_) {
      fn(iv);
    }
  }

  // True if every byte of [begin, end) is mapped.
  bool Covers(Addr begin, Addr end) const {
    ACCENT_EXPECTS(begin <= end);
    Addr cursor = begin;
    for (std::size_t i = FirstEndingAfter(begin); cursor < end && i < items_.size(); ++i) {
      if (items_[i].begin > cursor) {
        return false;
      }
      cursor = items_[i].end;
    }
    return cursor >= end;
  }

  bool empty() const { return items_.empty(); }
  std::size_t interval_count() const { return items_.size(); }

  // Sum of mapped interval lengths.
  ByteCount TotalBytes() const {
    ByteCount total = 0;
    for (const Interval& iv : items_) {
      total += iv.size();
    }
    return total;
  }

  friend bool operator==(const IntervalMap&, const IntervalMap&) = default;

 private:
  // Index of the first interval ending after `addr` (the one covering it,
  // or else the first to its right); items_.size() if none.
  std::size_t FirstEndingAfter(Addr addr) const {
    return static_cast<std::size_t>(
        std::upper_bound(items_.begin(), items_.end(), addr,
                         [](Addr a, const Interval& iv) { return a < iv.end; }) -
        items_.begin());
  }

  // Replaces items_[lo, hi) with pieces[0, count).
  void Splice(std::size_t lo, std::size_t hi, Interval* pieces, std::size_t count) {
    const auto at = static_cast<std::ptrdiff_t>(lo);
    const auto had = static_cast<std::ptrdiff_t>(hi - lo);
    const auto has = static_cast<std::ptrdiff_t>(count);
    if (has < had) {
      items_.erase(items_.begin() + at + has, items_.begin() + at + had);
    } else if (has > had) {
      items_.insert(items_.begin() + at + had, count - (hi - lo), Interval{});
    }
    std::move(pieces, pieces + count, items_.begin() + at);
  }

  std::vector<Interval> items_;
};

}  // namespace accent

#endif  // SRC_BASE_INTERVAL_MAP_H_
