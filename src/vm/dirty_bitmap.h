// Run-based dirty-page bitmap for pre-copy write tracking.
//
// Pre-copy migration (docs/INTERNALS.md section 13) re-ships exactly the
// pages written since the previous round, so the tracking structure is hit
// on every write fault of a live process. The old std::set<PageIndex> paid
// a tree node per dirty page; like PageStore, dirtiness clusters into
// contiguous runs (a Lisp heap sweep dirties thousands of adjacent pages),
// so this keeps sorted disjoint runs of 64-bit words — one header plus one
// dense word vector per cluster, binary search over runs, O(1) amortised
// marking within a run. Clean regions cost nothing, which is what lets the
// per-round bitmaps layer over PageStore runs without perturbing the shared
// PageRef payloads underneath. AddressSpace also keeps one to count the
// distinct pages its pager has touched.
#ifndef SRC_VM_DIRTY_BITMAP_H_
#define SRC_VM_DIRTY_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/types.h"

namespace accent {

class DirtyBitmap {
 public:
  // Marks `page` dirty. Returns true if the page was clean before. A page
  // whose word lies in or after the last run skips the search, so an
  // ascending sweep marks each page in O(1).
  bool Mark(PageIndex page);

  bool Test(PageIndex page) const;

  // Clears every page in [first, end) (unmap / remap supersedes dirtiness).
  // Touches only the runs the range overlaps, and allocates only to split
  // one run in two.
  void EraseRange(PageIndex first, PageIndex end);

  void Clear() {
    runs_.clear();
    count_ = 0;
  }

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t run_count() const { return runs_.size(); }

  // All dirty pages in ascending order.
  std::vector<PageIndex> ToVector() const;

 private:
  // A run covers pages [first_word * 64, (first_word + words.size()) * 64).
  struct Run {
    PageIndex first_word = 0;
    std::vector<std::uint64_t> words;

    PageIndex end_word() const { return first_word + words.size(); }
  };

  // Index of the first run with end_word() > word; runs_.size() if none.
  std::size_t RunIndexFor(PageIndex word) const;

  // Sorted by first_word; every word non-zero, so runs are exactly the
  // maximal stretches of dirty words and never touch.
  std::vector<Run> runs_;
  std::size_t count_ = 0;
};

}  // namespace accent

#endif  // SRC_VM_DIRTY_BITMAP_H_
