#include "src/base/page_store.h"

#include <algorithm>

#include "src/base/check.h"

namespace accent {

std::size_t PageStore::RunIndexFor(PageIndex page) const {
  auto it = std::upper_bound(runs_.begin(), runs_.end(), page,
                             [](PageIndex p, const Run& run) { return p < run.end(); });
  return static_cast<std::size_t>(it - runs_.begin());
}

const PageRef* PageStore::Find(PageIndex page) const {
  const std::size_t i = RunIndexFor(page);
  if (i == runs_.size() || runs_[i].first > page) {
    return nullptr;
  }
  return &runs_[i].pages[page - runs_[i].first];
}

PageRef* PageStore::FindMutable(PageIndex page) {
  return const_cast<PageRef*>(static_cast<const PageStore*>(this)->Find(page));
}

void PageStore::Store(PageIndex page, PageRef ref) {
  if (runs_.empty() || runs_.back().end() <= page) {
    // At or past the end: extend the last run or open one.
    ++size_;
    if (!runs_.empty() && runs_.back().end() == page) {
      runs_.back().pages.push_back(std::move(ref));
    } else {
      runs_.push_back(Run{page, {std::move(ref)}});
    }
    return;
  }
  const std::size_t i = RunIndexFor(page);
  if (i < runs_.size() && runs_[i].first <= page) {
    runs_[i].pages[page - runs_[i].first] = std::move(ref);  // replace in place
    return;
  }
  ++size_;
  const bool extends_prev = i > 0 && runs_[i - 1].end() == page;
  const bool extends_next = i < runs_.size() && runs_[i].first == page + 1;
  if (extends_prev) {
    runs_[i - 1].pages.push_back(std::move(ref));
    if (extends_next) {  // the append bridged two runs: merge the next in
      Run& prev = runs_[i - 1];
      Run& next = runs_[i];
      prev.pages.insert(prev.pages.end(), std::make_move_iterator(next.pages.begin()),
                        std::make_move_iterator(next.pages.end()));
      runs_.erase(runs_.begin() + i);
    }
    return;
  }
  if (extends_next) {  // prepend
    Run& next = runs_[i];
    next.pages.insert(next.pages.begin(), std::move(ref));
    next.first = page;
    return;
  }
  runs_.insert(runs_.begin() + i, Run{page, {std::move(ref)}});
}

void PageStore::Erase(PageIndex page) {
  const std::size_t i = RunIndexFor(page);
  if (i == runs_.size() || runs_[i].first > page) {
    return;
  }
  Run& run = runs_[i];
  --size_;
  if (run.pages.size() == 1) {
    runs_.erase(runs_.begin() + i);
    return;
  }
  const std::size_t offset = page - run.first;
  if (offset == 0) {
    run.pages.erase(run.pages.begin());
    ++run.first;
    return;
  }
  if (offset == run.pages.size() - 1) {
    run.pages.pop_back();
    return;
  }
  // Interior erase: split into [first, page) and (page, end).
  Run tail;
  tail.first = page + 1;
  tail.pages.assign(std::make_move_iterator(run.pages.begin() + offset + 1),
                    std::make_move_iterator(run.pages.end()));
  run.pages.resize(offset);
  runs_.insert(runs_.begin() + i + 1, std::move(tail));
}

void PageStore::EraseRange(PageIndex first, PageIndex end) {
  if (first >= end) {
    return;
  }
  std::size_t i = RunIndexFor(first);
  while (i < runs_.size() && runs_[i].first < end) {
    Run& run = runs_[i];
    const PageIndex lo = std::max(first, run.first);
    const PageIndex hi = std::min<PageIndex>(end, run.end());
    ACCENT_CHECK(lo < hi);
    size_ -= hi - lo;
    if (lo == run.first && hi == run.end()) {
      runs_.erase(runs_.begin() + i);
      continue;  // same index now names the next run
    }
    if (lo == run.first) {  // trim the front
      run.pages.erase(run.pages.begin(), run.pages.begin() + (hi - run.first));
      run.first = hi;
      return;  // hi == end: nothing further can overlap
    }
    if (hi == run.end()) {  // trim the back
      run.pages.resize(lo - run.first);
      ++i;
      continue;
    }
    // Carve a hole in the middle: keep [first_, lo) and [hi, end_).
    Run tail;
    tail.first = hi;
    tail.pages.assign(std::make_move_iterator(run.pages.begin() + (hi - run.first)),
                      std::make_move_iterator(run.pages.end()));
    run.pages.resize(lo - run.first);
    runs_.insert(runs_.begin() + i + 1, std::move(tail));
    return;
  }
}

}  // namespace accent
