#include "src/vm/dirty_bitmap.h"

#include <algorithm>

namespace accent {
namespace {

constexpr PageIndex kWordBits = 64;

PageIndex WordOf(PageIndex page) { return page / kWordBits; }
std::uint64_t BitOf(PageIndex page) { return 1ull << (page % kWordBits); }

}  // namespace

std::size_t DirtyBitmap::RunIndexFor(PageIndex word) const {
  std::size_t lo = 0;
  std::size_t hi = runs_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (runs_[mid].end_word() <= word) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool DirtyBitmap::Mark(PageIndex page) {
  const PageIndex word = WordOf(page);
  const std::uint64_t bit = BitOf(page);
  // A word in or after the last run needs no search (ascending sweeps).
  std::size_t index = runs_.size();
  if (!runs_.empty() && word < runs_.back().end_word()) {
    index = word >= runs_.back().first_word ? runs_.size() - 1 : RunIndexFor(word);
  }
  if (index < runs_.size() && runs_[index].first_word <= word) {
    std::uint64_t& slot = runs_[index].words[word - runs_[index].first_word];
    if (slot & bit) {
      return false;
    }
    slot |= bit;
    ++count_;
    return true;
  }
  // `word` falls in the gap before runs_[index]. Extend a neighbour when
  // adjacent (the common append-on-sweep case), else open a fresh run.
  if (index > 0 && runs_[index - 1].end_word() == word) {
    runs_[index - 1].words.push_back(bit);
    // Fuse with the next run if the extension closed the gap.
    if (index < runs_.size() && runs_[index].first_word == word + 1) {
      Run& prev = runs_[index - 1];
      prev.words.insert(prev.words.end(), runs_[index].words.begin(), runs_[index].words.end());
      runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(index));
    }
  } else if (index < runs_.size() && runs_[index].first_word == word + 1) {
    runs_[index].first_word = word;
    runs_[index].words.insert(runs_[index].words.begin(), bit);
  } else {
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(index), Run{word, {bit}});
  }
  ++count_;
  return true;
}

bool DirtyBitmap::Test(PageIndex page) const {
  const PageIndex word = WordOf(page);
  const std::size_t index = RunIndexFor(word);
  if (index >= runs_.size() || runs_[index].first_word > word) {
    return false;
  }
  return (runs_[index].words[word - runs_[index].first_word] & BitOf(page)) != 0;
}

void DirtyBitmap::EraseRange(PageIndex first, PageIndex end) {
  if (first >= end) {
    return;
  }
  const PageIndex first_word = WordOf(first);
  const PageIndex end_word = WordOf(end - 1) + 1;
  std::size_t drop_begin = 0;  // the emptied runs, contiguous: [drop_begin, drop_end)
  std::size_t drop_end = 0;
  for (std::size_t index = RunIndexFor(first_word);
       index < runs_.size() && runs_[index].first_word < end_word; ++index) {
    Run& run = runs_[index];
    const PageIndex lo = std::max(first_word, run.first_word);
    const PageIndex hi = std::min(end_word, run.end_word());
    for (PageIndex word = lo; word < hi; ++word) {
      const PageIndex word_base = word * kWordBits;
      std::uint64_t mask = ~0ull;
      if (first > word_base) {
        mask &= ~0ull << (first - word_base);
      }
      if (end < word_base + kWordBits) {
        mask &= (1ull << (end - word_base)) - 1;
      }
      std::uint64_t& slot = run.words[word - run.first_word];
      count_ -= static_cast<std::size_t>(__builtin_popcountll(slot & mask));
      slot &= ~mask;
    }
    // Only the erased range's first and last words can keep bits, so the
    // words this emptied form one block [zero_from, zero_to).
    const auto window = run.words.begin() + static_cast<std::ptrdiff_t>(lo - run.first_word);
    const auto window_end = window + static_cast<std::ptrdiff_t>(hi - lo);
    const auto zero_from = std::find(window, window_end, 0ull);
    if (zero_from == window_end) {
      continue;
    }
    const auto zero_to =
        std::find_if(zero_from, window_end, [](std::uint64_t slot) { return slot != 0; });
    const PageIndex zero_end = run.first_word + static_cast<PageIndex>(zero_to - run.words.begin());
    const bool keep_left = zero_from != run.words.begin();
    const bool keep_right = zero_to != run.words.end();
    if (keep_left && keep_right) {
      // The range fell inside this one run: split it around the block.
      Run right{zero_end, std::vector<std::uint64_t>(zero_to, run.words.end())};
      run.words.erase(zero_from, run.words.end());
      runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(index + 1), std::move(right));
      return;
    }
    if (keep_left) {
      run.words.erase(zero_from, run.words.end());
    } else if (keep_right) {
      run.words.erase(run.words.begin(), zero_to);
      run.first_word = zero_end;
    } else {
      if (drop_begin == drop_end) {
        drop_begin = index;
      }
      drop_end = index + 1;
    }
  }
  runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(drop_begin),
              runs_.begin() + static_cast<std::ptrdiff_t>(drop_end));
}

std::vector<PageIndex> DirtyBitmap::ToVector() const {
  std::vector<PageIndex> pages;
  pages.reserve(count_);
  for (const Run& run : runs_) {
    for (PageIndex word = run.first_word; word < run.end_word(); ++word) {
      std::uint64_t slot = run.words[word - run.first_word];
      while (slot != 0) {
        const int bit = __builtin_ctzll(slot);
        pages.push_back(word * kWordBits + static_cast<PageIndex>(bit));
        slot &= slot - 1;
      }
    }
  }
  return pages;
}

}  // namespace accent
