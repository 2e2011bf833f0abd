// DirtyBitmap: seeded property checks of Mark and EraseRange against a
// std::set<PageIndex> model, with ranges that cross 64-page words and runs,
// under random and under ascending-heavy marks.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/base/rng.h"
#include "src/vm/dirty_bitmap.h"

namespace accent {
namespace {

constexpr PageIndex kWordPages = 64;
constexpr PageIndex kWords = 12;
constexpr PageIndex kPages = kWords * kWordPages;

// Runs are visible only through run_count(). Tight runs are exactly the
// maximal stretches of dirty words, so run_count() is the number of those
// stretches, and marking a page of a clean word opens a run, extends one or
// fuses two as none, one or both of its neighbouring words are dirty. A run
// with a clean word at its edge would extend or fuse where the model opens.
void ExpectTightRuns(const DirtyBitmap& bitmap, const std::set<PageIndex>& model) {
  std::vector<bool> dirty(kWords + 2, false);
  for (const PageIndex page : model) {
    dirty[page / kWordPages] = true;
  }
  std::size_t stretches = 0;
  for (PageIndex word = 0; word <= kWords; ++word) {
    stretches += dirty[word] && (word == 0 || !dirty[word - 1]) ? 1 : 0;
  }
  ASSERT_EQ(bitmap.run_count(), stretches);
  for (PageIndex word = 0; word <= kWords; ++word) {
    if (dirty[word]) {
      continue;
    }
    DirtyBitmap probe = bitmap;
    ASSERT_TRUE(probe.Mark(word * kWordPages + word % kWordPages));
    const std::size_t neighbours =
        (word > 0 && dirty[word - 1] ? 1 : 0) + (dirty[word + 1] ? 1 : 0);
    ASSERT_EQ(probe.run_count() + neighbours, bitmap.run_count() + 1) << "clean word " << word;
  }
}

// The bitmap equals the model: count, every page, the ascending list and
// tight runs.
void ExpectMatchesModel(const DirtyBitmap& bitmap, const std::set<PageIndex>& model) {
  ASSERT_EQ(bitmap.count(), model.size());
  ASSERT_EQ(bitmap.empty(), model.empty());
  for (PageIndex page = 0; page < kPages + kWordPages; ++page) {
    ASSERT_EQ(bitmap.Test(page), model.count(page) == 1) << "page " << page;
  }
  ASSERT_EQ(bitmap.ToVector(), std::vector<PageIndex>(model.begin(), model.end()));
  ASSERT_NO_FATAL_FAILURE(ExpectTightRuns(bitmap, model));
}

class DirtyBitmapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirtyBitmapProperty, MatchesSetModelUnderMarkAndEraseRange) {
  Rng rng(GetParam());
  DirtyBitmap bitmap;
  std::set<PageIndex> model;

  for (int step = 0; step < 300; ++step) {
    PageIndex first = rng.NextBelow(kPages);
    PageIndex end = std::min(kPages, first + 1 + rng.NextBelow(3 * kWordPages));
    if (rng.NextBool(0.25)) {
      // Whole words: the range starts and ends on a word boundary.
      first -= first % kWordPages;
      end = std::min(kPages, end + (kWordPages - end % kWordPages) % kWordPages);
    }
    if (rng.NextBool(0.6)) {
      // A write burst over every page, or every stride-th, of the range.
      const PageIndex stride = 1 + rng.NextBelow(4);
      for (PageIndex page = first; page < end; page += stride) {
        ASSERT_EQ(bitmap.Mark(page), model.insert(page).second) << "page " << page;
      }
    } else {
      bitmap.EraseRange(first, end);
      model.erase(model.lower_bound(first), model.lower_bound(end));
    }

    SCOPED_TRACE(testing::Message() << "step " << step << " range [" << first << "," << end
                                    << ")");
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(bitmap, model));
  }
}

// Ascending-heavy marks, the way a sweep or an insertion dirties pages:
// most bursts start in or after the last run's words (behind the last dirty
// page, in the next word, or past clean words), the rest anywhere, between
// range erases. The bitmap starts over when a burst would start past the
// tracked pages.
TEST_P(DirtyBitmapProperty, MatchesSetModelUnderAscendingMarks) {
  Rng rng(GetParam());
  DirtyBitmap bitmap;
  std::set<PageIndex> model;

  for (int step = 0; step < 300; ++step) {
    const PageIndex last = model.empty() ? 0 : *model.rbegin();
    const PageIndex last_word = last / kWordPages;
    const std::uint64_t shape = rng.NextBelow(10);
    PageIndex first = 0;
    if (shape < 3) {
      first = last - std::min<PageIndex>(last, rng.NextBelow(2 * kWordPages));
    } else if (shape < 5) {
      first = (last_word + 1) * kWordPages + rng.NextBelow(kWordPages);
    } else if (shape < 7) {
      first = (last_word + 2 + rng.NextBelow(3)) * kWordPages + rng.NextBelow(kWordPages);
    } else {
      first = rng.NextBelow(kPages);
    }
    const PageIndex end = std::min(kPages, first + 1 + rng.NextBelow(2 * kWordPages));
    if (first >= kPages) {
      bitmap.Clear();
      model.clear();
    } else if (shape < 9) {
      const PageIndex stride = 1 + rng.NextBelow(4);
      for (PageIndex page = first; page < end; page += stride) {
        ASSERT_EQ(bitmap.Mark(page), model.insert(page).second) << "page " << page;
      }
    } else {
      bitmap.EraseRange(first, end);
      model.erase(model.lower_bound(first), model.lower_bound(end));
    }

    SCOPED_TRACE(testing::Message() << "step " << step << " shape " << shape << " range ["
                                    << first << "," << end << ")");
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(bitmap, model));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirtyBitmapProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace accent
