// Run-aware sparse page table.
//
// Segments and address spaces hold pages at mostly-contiguous indices
// (program images, validated Lisp heaps, migrated-in runs), yet the old
// std::map<PageIndex, PageData> paid a tree node, a pointer chase and an
// allocation per page. PageStore keeps sorted runs of contiguous pages —
// each run one header plus one dense vector of PageRefs — so lookup is a
// binary search over runs (few, typically one per mapped region) and
// storing the next contiguous page is an amortised O(1) append.
//
// Semantics match the maps it replaces: a stored zero PageRef is a present
// entry (AddressSpace keeps materialised-but-zero private pages), and the
// caller decides whether zero means erase (Segment stays sparse).
#ifndef SRC_BASE_PAGE_STORE_H_
#define SRC_BASE_PAGE_STORE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/base/page_ref.h"
#include "src/base/types.h"

namespace accent {

class PageStore {
 public:
  // Inserts or replaces the entry for `page`. A page at or past the last
  // run's end skips the search: storing pages in ascending order costs
  // O(1) each.
  void Store(PageIndex page, PageRef ref);

  // Removes the entry for `page` (no-op if absent), splitting its run.
  void Erase(PageIndex page);

  // Removes every entry in [first, end).
  void EraseRange(PageIndex first, PageIndex end);

  // Pointer to the stored entry, or nullptr if absent. Stable only until
  // the next mutation.
  const PageRef* Find(PageIndex page) const;
  PageRef* FindMutable(PageIndex page);

  bool Contains(PageIndex page) const { return Find(page) != nullptr; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t run_count() const { return runs_.size(); }
  void clear() {
    runs_.clear();
    size_ = 0;
  }

  // Visits entries in ascending page order: fn(PageIndex, const PageRef&).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Run& run : runs_) {
      for (std::size_t i = 0; i < run.pages.size(); ++i) {
        fn(run.first + i, run.pages[i]);
      }
    }
  }

 private:
  struct Run {
    PageIndex first = 0;
    std::vector<PageRef> pages;  // pages [first, first + pages.size())

    PageIndex end() const { return first + pages.size(); }
  };

  // Index of the first run with run.end() > page (the only run that could
  // contain it); runs_.size() if none.
  std::size_t RunIndexFor(PageIndex page) const;

  std::vector<Run> runs_;  // sorted by first; disjoint; never empty or adjacent
  std::size_t size_ = 0;
};

}  // namespace accent

#endif  // SRC_BASE_PAGE_STORE_H_
