// PageRef + PageStore unit tests: the zero-copy data plane's foundations,
// plus its copy-traffic gate on a full pure-copy trial.
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/page_data.h"
#include "src/base/page_ref.h"
#include "src/base/page_store.h"
#include "src/base/rng.h"
#include "src/experiments/trial.h"

namespace accent {
namespace {

TEST(PageRefTest, DefaultIsInternedZeroPage) {
  ResetPageCounters();
  PageRef zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_TRUE(IsZeroPage(zero));
  EXPECT_EQ(zero.use_count(), 0);
  EXPECT_EQ(PageByteAt(zero, 0), 0);
  EXPECT_EQ(PageByteAt(zero, kPageSize - 1), 0);

  // Copying zero pages allocates nothing and counts nothing.
  PageRef other = zero;
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.payload_allocs, 0u);
  EXPECT_EQ(counters.page_bytes_copied, 0u);
  EXPECT_EQ(counters.payload_shares, 0u);
}

TEST(PageRefTest, ZeroWriteToZeroPageStaysInterned) {
  PageRef zero;
  zero.WriteByte(17, 0);
  EXPECT_TRUE(zero.IsZero());  // still no payload
  zero.WriteByte(17, 5);
  EXPECT_FALSE(zero.IsZero());
  EXPECT_EQ(zero.ByteAt(17), 5);
  EXPECT_EQ(zero.ByteAt(16), 0);
}

TEST(PageRefTest, ChecksumParityWithPageData) {
  const PageData pattern = MakePatternPage(7);
  const PageRef ref(pattern);
  EXPECT_EQ(PageIntegrityChecksum(ref), PageIntegrityChecksum(pattern));
  // Zero page hashes identically to an empty PageData (kPageSize zeros).
  EXPECT_EQ(PageIntegrityChecksum(PageRef{}), PageIntegrityChecksum(PageData{}));
}

TEST(PageRefTest, EqualityMatchesPageDataSemantics) {
  const PageRef a(MakePatternPage(3));
  const PageRef b(MakePatternPage(3));
  const PageRef c(MakePatternPage(4));
  EXPECT_EQ(a, b);  // distinct payloads, same bytes
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a, MakePatternPage(3));
  EXPECT_EQ(MakePatternPage(3), a);  // C++20 reversed candidate
  // Old convention: an empty page is not equal to a materialised zero page.
  PageRef materialised(PageData(kPageSize, 0));
  EXPECT_FALSE(PageRef{} == materialised);
}

TEST(PageRefTest, CopySharesPayloadWithoutCopyingBytes) {
  ResetPageCounters();
  PageRef a(MakePatternPage(1));
  EXPECT_EQ(ReadPageCounters().payload_allocs, 1u);
  PageRef b = a;
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.use_count(), 2);
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.payload_allocs, 1u);  // no second allocation
  EXPECT_EQ(counters.page_bytes_copied, 0u);
  EXPECT_EQ(counters.payload_shares, 1u);
}

TEST(PageRefTest, CowWriteIsolatesSharers) {
  ResetPageCounters();
  PageRef a(MakePatternPage(2));
  PageRef b = a;
  const std::uint8_t original = a.ByteAt(100);
  b.WriteByte(100, static_cast<std::uint8_t>(original + 1));
  EXPECT_EQ(a.ByteAt(100), original) << "writer must not be visible to sharers";
  EXPECT_EQ(b.ByteAt(100), static_cast<std::uint8_t>(original + 1));
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.cow_breaks, 1u);
  EXPECT_EQ(counters.page_bytes_copied, kPageSize);
}

TEST(PageRefTest, ExclusiveWriteDoesNotClone) {
  ResetPageCounters();
  PageRef a(MakePatternPage(5));
  a.WriteByte(0, 42);
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.cow_breaks, 0u);
  EXPECT_EQ(counters.page_bytes_copied, 0u);
}

// Every reader of a pattern ref sees MakePatternPage(seed), and each fresh
// ref materialises exactly once, on its first read.
TEST(PageRefTest, PatternReadsAsItsPageThroughEveryReader) {
  const PageData want = MakePatternPage(11);
  const std::uint64_t before = ReadPageCounters().pattern_pages_materialized;
  const PageRef unread = PageRef::Pattern(11);
  EXPECT_FALSE(unread.IsZero());
  EXPECT_EQ(ReadPageCounters().pattern_pages_materialized, before);

  EXPECT_EQ(PageRef::Pattern(11).Bytes(), want);
  for (ByteCount offset : {ByteCount{0}, ByteCount{7}, ByteCount{300}, kPageSize - 1}) {
    EXPECT_EQ(PageRef::Pattern(11).ByteAt(offset), want[offset]) << "offset " << offset;
    EXPECT_EQ(PageByteAt(PageRef::Pattern(11), offset), want[offset]) << "offset " << offset;
  }
  EXPECT_EQ(PageRef::Pattern(11).Hash(), ComputePageHash(want));
  EXPECT_EQ(PageRef::Pattern(11).IntegrityChecksum(), PageIntegrityChecksum(want));
  EXPECT_EQ(PageIntegrityChecksum(PageRef::Pattern(11)), PageIntegrityChecksum(want));
  EXPECT_EQ(PageRef::Pattern(11).Clone(), want);
  EXPECT_TRUE(PageRef::Pattern(11) == want);
  EXPECT_TRUE(PageRef::Pattern(11) == PageRef(want));
  EXPECT_TRUE(PageRef(want) == PageRef::Pattern(11));
  EXPECT_TRUE(PageRef::Pattern(11) == PageRef::Pattern(11));
  EXPECT_FALSE(PageRef::Pattern(11) == PageRef::Pattern(12));
  // 1 + 8 + 1 + 2 + 1 + 1 + 1 + 1 + 2 + 2 fresh refs read above.
  EXPECT_EQ(ReadPageCounters().pattern_pages_materialized - before, 20u);

  // A second read of one ref generates nothing more.
  const std::uint64_t once = ReadPageCounters().pattern_pages_materialized;
  EXPECT_EQ(unread.ByteAt(5), want[5]);
  EXPECT_EQ(unread.Bytes(), want);
  EXPECT_EQ(ReadPageCounters().pattern_pages_materialized - once, 1u);
}

// A write through one of two holders of an unmaterialised pattern clones
// it like any shared payload; the other holder still reads the pattern.
TEST(PageRefTest, WriteToSharedPatternClonesIt) {
  ResetPageCounters();
  const PageData want = MakePatternPage(21);
  PageRef a = PageRef::Pattern(21);
  PageRef b = a;
  b.WriteByte(100, static_cast<std::uint8_t>(want[100] ^ 0xff));
  const PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.cow_breaks, 1u);
  EXPECT_EQ(counters.page_bytes_copied, kPageSize);
  EXPECT_EQ(counters.payload_allocs, 2u);
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_EQ(a.Bytes(), want) << "writer must not be visible to sharers";
  PageData written = want;
  written[100] ^= 0xff;
  EXPECT_EQ(b.Bytes(), written);
  EXPECT_EQ(b.Hash(), ComputePageHash(written));
}

// A sole holder's write needs no clone: an unmaterialised pattern
// materialises in place, and a write drops the memoized hash.
TEST(PageRefTest, SoleHolderWriteMaterialisesInPlaceAndDropsTheHashMemo) {
  ResetPageCounters();
  const PageData want = MakePatternPage(31);
  PageRef a = PageRef::Pattern(31);
  a.WriteByte(9, static_cast<std::uint8_t>(want[9] ^ 0x10));
  PageCounterSnapshot counters = ReadPageCounters();
  EXPECT_EQ(counters.payload_allocs, 1u);
  EXPECT_EQ(counters.pattern_pages_materialized, 1u);
  EXPECT_EQ(counters.cow_breaks, 0u);
  EXPECT_EQ(counters.page_bytes_copied, 0u);
  PageData written = want;
  written[9] ^= 0x10;
  EXPECT_EQ(a.Bytes(), written);

  EXPECT_EQ(a.Hash(), ComputePageHash(written));
  a.WriteByte(10, static_cast<std::uint8_t>(want[10] ^ 0x20));
  written[10] ^= 0x20;
  EXPECT_EQ(a.Hash(), ComputePageHash(written)) << "the memo must not outlive a write";
  counters = ReadPageCounters();
  EXPECT_EQ(counters.payload_allocs, 1u);
  EXPECT_EQ(counters.pattern_pages_materialized, 1u);
}

// Data-plane regression gate on the copy-heaviest cell of the paper grid,
// the PM-Mid pure-copy trial. The only payload bytes the host copies are
// copy-on-write breaks, and every refcount share stands for a kPageSize
// copy the old PageData tables made: sharing must at least halve that.
TEST(DataPlane, PureCopyTrialCopiesOnlyOnCowBreaks) {
  TrialConfig config;
  config.workload = "PM-Mid";
  config.strategy = TransferStrategy::kPureCopy;
  ResetPageCounters();
  RunTrial(config);
  const PageCounterSnapshot counters = ReadPageCounters();
  ASSERT_GT(counters.payload_shares, 0u);
  EXPECT_EQ(counters.page_bytes_copied, counters.cow_breaks * kPageSize);
  EXPECT_LE(counters.page_bytes_copied * 2, counters.payload_shares * kPageSize);
}

TEST(PageStoreTest, StoreFindEraseRoundTrip) {
  PageStore store;
  EXPECT_TRUE(store.empty());
  store.Store(10, PageRef(MakePatternPage(10)));
  store.Store(11, PageRef(MakePatternPage(11)));
  store.Store(12, PageRef(MakePatternPage(12)));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.run_count(), 1u) << "contiguous pages coalesce into one run";
  ASSERT_NE(store.Find(11), nullptr);
  EXPECT_EQ(*store.Find(11), MakePatternPage(11));
  EXPECT_EQ(store.Find(9), nullptr);
  EXPECT_EQ(store.Find(13), nullptr);
  store.Erase(11);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.run_count(), 2u) << "interior erase splits the run";
  EXPECT_EQ(store.Find(11), nullptr);
  EXPECT_NE(store.Find(10), nullptr);
  EXPECT_NE(store.Find(12), nullptr);
}

TEST(PageStoreTest, BridgingStoreMergesRuns) {
  PageStore store;
  store.Store(5, PageRef(MakePatternPage(5)));
  store.Store(7, PageRef(MakePatternPage(7)));
  EXPECT_EQ(store.run_count(), 2u);
  store.Store(6, PageRef(MakePatternPage(6)));
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(store.size(), 3u);
  for (PageIndex p = 5; p <= 7; ++p) {
    ASSERT_NE(store.Find(p), nullptr) << p;
    EXPECT_EQ(*store.Find(p), MakePatternPage(p));
  }
}

TEST(PageStoreTest, PrependAndReplace) {
  PageStore store;
  store.Store(20, PageRef(MakePatternPage(20)));
  store.Store(19, PageRef(MakePatternPage(19)));  // prepend to run
  EXPECT_EQ(store.run_count(), 1u);
  store.Store(20, PageRef(MakePatternPage(99)));  // replace in place
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(*store.Find(20), MakePatternPage(99));
  EXPECT_EQ(*store.Find(19), MakePatternPage(19));
}

TEST(PageStoreTest, ZeroRefsArePresentEntries) {
  PageStore store;
  store.Store(3, PageRef{});
  EXPECT_TRUE(store.Contains(3));
  EXPECT_TRUE(store.Find(3)->IsZero());
  EXPECT_EQ(store.size(), 1u);
}

TEST(PageStoreTest, EraseRangeCarvesHoles) {
  PageStore store;
  for (PageIndex p = 0; p < 10; ++p) {
    store.Store(p, PageRef(MakePatternPage(p)));
  }
  store.EraseRange(3, 7);
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.run_count(), 2u);
  for (PageIndex p = 0; p < 10; ++p) {
    EXPECT_EQ(store.Contains(p), p < 3 || p >= 7) << p;
  }
  // Range spanning several runs, ends beyond the data.
  store.EraseRange(0, 100);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.run_count(), 0u);
}

TEST(PageStoreTest, EraseRangeTrimsEdges) {
  PageStore store;
  for (PageIndex p = 10; p < 20; ++p) {
    store.Store(p, PageRef(MakePatternPage(p)));
  }
  store.EraseRange(5, 12);  // overlaps the front only
  EXPECT_EQ(store.size(), 8u);
  EXPECT_FALSE(store.Contains(11));
  EXPECT_TRUE(store.Contains(12));
  store.EraseRange(18, 25);  // overlaps the back only
  EXPECT_EQ(store.size(), 6u);
  EXPECT_TRUE(store.Contains(17));
  EXPECT_FALSE(store.Contains(18));
  EXPECT_EQ(store.run_count(), 1u);
}

TEST(PageStoreTest, ForEachVisitsAscending) {
  PageStore store;
  store.Store(50, PageRef(MakePatternPage(50)));
  store.Store(2, PageRef(MakePatternPage(2)));
  store.Store(51, PageRef(MakePatternPage(51)));
  std::vector<PageIndex> seen;
  store.ForEach([&](PageIndex page, const PageRef& ref) {
    seen.push_back(page);
    EXPECT_EQ(ref, MakePatternPage(page));
  });
  EXPECT_EQ(seen, (std::vector<PageIndex>{2, 50, 51}));
}

TEST(PageStoreTest, SharedPayloadAcrossStores) {
  // The same payload stored in two stores (source segment + message +
  // destination space in real life) is one allocation with three holders.
  ResetPageCounters();
  PageRef page(MakePatternPage(1));
  PageStore a;
  PageStore b;
  a.Store(0, page);
  b.Store(9, page);
  EXPECT_EQ(page.use_count(), 3);
  EXPECT_EQ(ReadPageCounters().payload_allocs, 1u);
}

// Seeded ops against a std::map model: mostly ascending stores (at the
// last run's end or past a gap), with replacements, stores anywhere, erases
// and range erases. The store starts over when an append would leave the
// tracked pages. Runs must be exactly the maximal stretches of present
// pages.
TEST(PageStoreTest, MatchesMapModelUnderAscendingStores) {
  constexpr PageIndex kPages = 160;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 5ull, 8ull}) {
    Rng rng(seed);
    PageStore store;
    std::map<PageIndex, PageRef> model;
    for (int step = 0; step < 400; ++step) {
      const PageIndex tail = model.empty() ? 0 : model.rbegin()->first + 1;
      const std::uint64_t op = rng.NextBelow(10);
      const PageRef ref = PageRef::Pattern(rng.Next());
      if (op < 5) {
        const PageIndex page = tail + (rng.NextBool(0.5) ? 0 : 1 + rng.NextBelow(3));
        if (page >= kPages) {
          store.clear();
          model.clear();
        } else {
          store.Store(page, ref);
          model[page] = ref;
        }
      } else if (op < 7) {
        // A replacement half the time, else a store anywhere.
        const PageIndex page = !model.empty() && rng.NextBool(0.5)
                                   ? std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                                                  rng.NextBelow(model.size())))
                                         ->first
                                   : rng.NextBelow(kPages);
        store.Store(page, ref);
        model[page] = ref;
      } else if (op < 9) {
        const PageIndex page = rng.NextBelow(kPages);
        store.Erase(page);
        model.erase(page);
      } else {
        const PageIndex first = rng.NextBelow(kPages);
        const PageIndex end = first + rng.NextBelow(24);
        store.EraseRange(first, end);
        model.erase(model.lower_bound(first), model.lower_bound(end));
      }

      SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step << " op " << op);
      ASSERT_EQ(store.size(), model.size());
      ASSERT_EQ(store.empty(), model.empty());
      std::size_t stretches = 0;
      for (PageIndex page = 0; page < kPages + 4; ++page) {
        const auto want = model.find(page);
        const PageRef* got = store.Find(page);
        ASSERT_EQ(got != nullptr, want != model.end()) << "page " << page;
        if (got != nullptr) {
          ASSERT_TRUE(*got == want->second) << "page " << page;
          stretches += page == 0 || model.count(page - 1) == 0 ? 1 : 0;
        }
      }
      ASSERT_EQ(store.run_count(), stretches);
      std::vector<PageIndex> seen;
      store.ForEach([&](PageIndex page, const PageRef&) { seen.push_back(page); });
      std::vector<PageIndex> want_pages;
      for (const auto& entry : model) {
        want_pages.push_back(entry.first);
      }
      ASSERT_EQ(seen, want_pages);
    }
  }
}

}  // namespace
}  // namespace accent
