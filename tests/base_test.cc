// Unit tests for base utilities: types, rng, page data, result.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/base/page_data.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/types.h"

namespace accent {
namespace {

// --- types ------------------------------------------------------------------

TEST(Types, PageArithmetic) {
  EXPECT_EQ(PageOf(0), 0u);
  EXPECT_EQ(PageOf(511), 0u);
  EXPECT_EQ(PageOf(512), 1u);
  EXPECT_EQ(PageBase(3), 1536u);
  EXPECT_EQ(RoundDownToPage(1000), 512u);
  EXPECT_EQ(RoundUpToPage(1000), 1024u);
  EXPECT_EQ(RoundUpToPage(1024), 1024u);
  EXPECT_EQ(RoundUpToPage(0), 0u);
}

TEST(Types, DurationHelpers) {
  EXPECT_EQ(Us(5).count(), 5);
  EXPECT_EQ(Ms(5).count(), 5000);
  EXPECT_EQ(Sec(1.5).count(), 1500000);
  EXPECT_DOUBLE_EQ(ToSeconds(Ms(2500)), 2.5);
}

TEST(Types, IdsAreDistinctByTag) {
  HostId host(3);
  ProcId proc(3);
  EXPECT_EQ(host.value, proc.value);
  EXPECT_TRUE(host.valid());
  EXPECT_FALSE(HostId().valid());
  EXPECT_EQ(HostId(3), HostId(3));
  EXPECT_NE(HostId(3), HostId(4));
  EXPECT_LT(HostId(3), HostId(4));
}

// --- rng --------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextInRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolProbabilityRoughlyHonoured) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits, 2500, 200);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(Rng, ForkIndependentButStable) {
  Rng base(99);
  Rng f1 = base.Fork(1);
  Rng f1_again = Rng(99).Fork(1);
  Rng f2 = base.Fork(2);
  EXPECT_EQ(f1.Next(), f1_again.Next());
  EXPECT_NE(f1.Next(), f2.Next());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- page data -------------------------------------------------------------

TEST(PageData, PatternPagesAreDeterministic) {
  EXPECT_EQ(MakePatternPage(42), MakePatternPage(42));
  EXPECT_NE(MakePatternPage(42), MakePatternPage(43));
  EXPECT_EQ(MakePatternPage(42).size(), kPageSize);
}

// Every integrity verdict compares two runs of the same generator, so a
// changed generator would pass them all: the bytes themselves are pinned.
// FNV-1a-64 from its offset basis over every byte of 1000 pattern pages.
TEST(PageData, PatternPageBytesArePinned) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    for (std::uint8_t byte : MakePatternPage(k * 0x9e3779b97f4a7c15ull)) {
      hash = (hash ^ byte) * 0x100000001b3ull;
    }
  }
  EXPECT_EQ(hash, 0x2e7d1164ced35781ull) << std::hex << "0x" << hash;
}

TEST(PageData, ZeroPageReadsAsZero) {
  PageData zero;
  for (ByteCount i = 0; i < kPageSize; i += 37) {
    EXPECT_EQ(PageByteAt(zero, i), 0);
  }
  EXPECT_TRUE(IsZeroPage(zero));
}

TEST(PageData, ChecksumDistinguishesContents) {
  EXPECT_NE(PageIntegrityChecksum(MakePatternPage(1)), PageIntegrityChecksum(MakePatternPage(2)));
  EXPECT_EQ(PageIntegrityChecksum(PageData{}), PageIntegrityChecksum(PageData(kPageSize, 0)));
}

// The integrity checksum must see any single corruption: each of the 4,096
// one-bit flips of a page gives its own value, none the original's, and
// swapping any two of its 64 words changes the value.
TEST(PageData, ChecksumSeesEveryBitFlipAndWordSwap) {
  const PageData page = MakePatternPage(77);
  const std::uint64_t original = PageIntegrityChecksum(page);
  std::set<std::uint64_t> flipped;
  for (ByteCount bit = 0; bit < kPageSize * 8; ++bit) {
    PageData corrupt = page;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    flipped.insert(PageIntegrityChecksum(corrupt));
  }
  EXPECT_EQ(flipped.size(), kPageSize * 8);
  EXPECT_EQ(flipped.count(original), 0u);

  int swaps = 0;
  for (ByteCount a = 0; a < kPageSize; a += 8) {
    for (ByteCount b = a + 8; b < kPageSize; b += 8) {
      PageData swapped = page;
      std::swap_ranges(swapped.begin() + a, swapped.begin() + a + 8, swapped.begin() + b);
      ASSERT_NE(swapped, page);
      EXPECT_NE(PageIntegrityChecksum(swapped), original) << "words " << a / 8 << ", " << b / 8;
      ++swaps;
    }
  }
  EXPECT_EQ(swaps, 2016);
}

TEST(PageData, WriteMaterialisesZeroPage) {
  PageData page;
  PageWriteByte(page, 100, 0);  // writing zero keeps it sparse
  EXPECT_TRUE(page.empty());
  PageWriteByte(page, 100, 7);
  ASSERT_EQ(page.size(), kPageSize);
  EXPECT_EQ(PageByteAt(page, 100), 7);
  EXPECT_EQ(PageByteAt(page, 99), 0);
}

// --- result -----------------------------------------------------------------

TEST(Result, ValueRoundTrip) {
  Result<int> ok(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
}

TEST(Result, ErrorRoundTrip) {
  Result<int> bad = Err("boom");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "boom");
}

TEST(Result, VoidSpecialisation) {
  Result<void> ok = OkResult();
  EXPECT_TRUE(ok.ok());
  Result<void> bad = Err("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "hello");
}

}  // namespace
}  // namespace accent
