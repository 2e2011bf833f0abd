// IntervalMap: unit tests plus a randomized property check against a
// brute-force byte-level reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "src/base/interval_map.h"
#include "src/base/rng.h"

namespace accent {
namespace {

using Map = IntervalMap<int>;

std::vector<Map::Interval> Collect(const Map& map) {
  std::vector<Map::Interval> out;
  map.ForEach([&](const Map::Interval& iv) { out.push_back(iv); });
  return out;
}

TEST(IntervalMap, EmptyByDefault) {
  Map map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.interval_count(), 0u);
  EXPECT_EQ(map.TotalBytes(), 0u);
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(~0ull - 1), nullptr);
}

TEST(IntervalMap, SingleAssign) {
  Map map;
  map.Assign(100, 200, 7);
  EXPECT_EQ(map.interval_count(), 1u);
  EXPECT_EQ(map.TotalBytes(), 100u);
  EXPECT_EQ(map.Find(99), nullptr);
  ASSERT_NE(map.Find(100), nullptr);
  EXPECT_EQ(*map.Find(100), 7);
  EXPECT_EQ(*map.Find(199), 7);
  EXPECT_EQ(map.Find(200), nullptr);
}

TEST(IntervalMap, AdjacentEqualValuesCoalesce) {
  Map map;
  map.Assign(0, 10, 1);
  map.Assign(10, 20, 1);
  EXPECT_EQ(map.interval_count(), 1u);
  auto iv = map.FindInterval(5);
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(iv->begin, 0u);
  EXPECT_EQ(iv->end, 20u);
}

TEST(IntervalMap, AdjacentDifferentValuesStaySplit) {
  Map map;
  map.Assign(0, 10, 1);
  map.Assign(10, 20, 2);
  EXPECT_EQ(map.interval_count(), 2u);
}

TEST(IntervalMap, OverwriteMiddleSplitsInterval) {
  Map map;
  map.Assign(0, 30, 1);
  map.Assign(10, 20, 2);
  const auto intervals = Collect(map);
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_EQ(intervals[0].end, 10u);
  EXPECT_EQ(intervals[1].value, 2);
  EXPECT_EQ(intervals[2].begin, 20u);
  EXPECT_EQ(intervals[2].value, 1);
}

TEST(IntervalMap, OverwriteWithSameValueKeepsOneInterval) {
  Map map;
  map.Assign(0, 30, 1);
  map.Assign(10, 20, 1);
  EXPECT_EQ(map.interval_count(), 1u);
}

TEST(IntervalMap, EraseMiddle) {
  Map map;
  map.Assign(0, 30, 1);
  map.Erase(10, 20);
  EXPECT_EQ(map.interval_count(), 2u);
  EXPECT_EQ(map.Find(15), nullptr);
  EXPECT_NE(map.Find(5), nullptr);
  EXPECT_NE(map.Find(25), nullptr);
  EXPECT_EQ(map.TotalBytes(), 20u);
}

TEST(IntervalMap, EraseUnmappedIsNoop) {
  Map map;
  map.Assign(0, 10, 1);
  map.Erase(100, 200);
  EXPECT_EQ(map.interval_count(), 1u);
}

TEST(IntervalMap, CoversDetectsGaps) {
  Map map;
  map.Assign(0, 10, 1);
  map.Assign(20, 30, 1);
  EXPECT_TRUE(map.Covers(0, 10));
  EXPECT_TRUE(map.Covers(2, 8));
  EXPECT_FALSE(map.Covers(0, 30));
  EXPECT_FALSE(map.Covers(5, 25));
  EXPECT_FALSE(map.Covers(10, 20));
}

TEST(IntervalMap, CoversAcrossAdjacentDifferentValues) {
  Map map;
  map.Assign(0, 10, 1);
  map.Assign(10, 20, 2);
  EXPECT_TRUE(map.Covers(0, 20));
}

TEST(IntervalMap, ForEachInClipsToWindow) {
  Map map;
  map.Assign(0, 100, 1);
  std::vector<Map::Interval> seen;
  map.ForEachIn(30, 60, [&](const Map::Interval& iv) { seen.push_back(iv); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].begin, 30u);
  EXPECT_EQ(seen[0].end, 60u);
}

TEST(IntervalMap, ForEachInSkipsDisjointIntervals) {
  Map map;
  map.Assign(0, 10, 1);
  map.Assign(50, 60, 2);
  int count = 0;
  map.ForEachIn(20, 40, [&](const Map::Interval&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(IntervalMap, FindMutableAllowsInPlaceEdit) {
  Map map;
  map.Assign(0, 10, 1);
  int* value = map.FindMutable(5);
  ASSERT_NE(value, nullptr);
  *value = 9;
  EXPECT_EQ(*map.Find(5), 9);
  EXPECT_EQ(map.FindMutable(10), nullptr);
}

TEST(IntervalMap, HandlesFullAddressRangeScale) {
  // Validating 4 GB costs one node (the Lisp birth-time pattern).
  Map map;
  map.Assign(0, 4ull * 1024 * 1024 * 1024, 1);
  EXPECT_EQ(map.interval_count(), 1u);
  EXPECT_EQ(map.TotalBytes(), 4ull * 1024 * 1024 * 1024);
}

// --- randomized property check -------------------------------------------

// Reference model: value per byte.
class ReferenceModel {
 public:
  void Assign(Addr b, Addr e, int v) {
    for (Addr a = b; a < e; ++a) {
      bytes_[a] = v;
    }
  }
  void Erase(Addr b, Addr e) {
    for (Addr a = b; a < e; ++a) {
      bytes_.erase(a);
    }
  }
  std::optional<int> Find(Addr a) const {
    auto it = bytes_.find(a);
    if (it == bytes_.end()) {
      return std::nullopt;
    }
    return it->second;
  }
  ByteCount TotalBytes() const { return bytes_.size(); }

  // What ForEachIn(b, e) must report: the maximal stretches of mapped bytes
  // holding one value, clipped to [b, e).
  std::vector<Map::Interval> Pieces(Addr b, Addr e) const {
    std::vector<Map::Interval> pieces;
    for (auto it = bytes_.lower_bound(b); it != bytes_.end() && it->first < e; ++it) {
      const auto [a, v] = *it;
      if (!pieces.empty() && pieces.back().end == a && pieces.back().value == v) {
        ++pieces.back().end;
      } else {
        pieces.push_back(Map::Interval{a, a + 1, v});
      }
    }
    return pieces;
  }

 private:
  std::map<Addr, int> bytes_;
};

using Span = std::tuple<Addr, Addr, int>;

std::vector<Span> Spans(const std::vector<Map::Interval>& intervals) {
  std::vector<Span> spans;
  for (const Map::Interval& iv : intervals) {
    spans.emplace_back(iv.begin, iv.end, iv.value);
  }
  return spans;
}

// The property tests' address space.
constexpr Addr kSpace = 256;

// The map equals the model after `step`: every address, the intervals,
// FindInterval, random windows through ForEachIn and Covers, and the
// structural invariants.
void ExpectMatchesModel(const Map& map, const ReferenceModel& model, Rng& rng, int step) {
  // Full equivalence over the space.
  for (Addr a = 0; a < kSpace; ++a) {
    const int* got = map.Find(a);
    const std::optional<int> want = model.Find(a);
    ASSERT_EQ(got != nullptr, want.has_value()) << "addr " << a << " step " << step;
    if (got != nullptr) {
      ASSERT_EQ(*got, *want) << "addr " << a << " step " << step;
    }
  }
  ASSERT_EQ(map.TotalBytes(), model.TotalBytes());

  // The intervals are the model's maximal one-value stretches, and
  // FindInterval returns the one around an address.
  const std::vector<Map::Interval> whole = model.Pieces(0, kSpace);
  ASSERT_EQ(Spans(Collect(map)), Spans(whole)) << "step " << step;
  for (Addr a = 0; a < kSpace; ++a) {
    const std::optional<Map::Interval> got = map.FindInterval(a);
    const auto want = std::find_if(whole.begin(), whole.end(), [&](const Map::Interval& iv) {
      return iv.begin <= a && a < iv.end;
    });
    ASSERT_EQ(got.has_value(), want != whole.end()) << "addr " << a << " step " << step;
    if (got.has_value()) {
      ASSERT_EQ(Spans({*got}), Spans({*want})) << "addr " << a << " step " << step;
    }
  }

  // Random windows: ForEachIn's clipped pieces and Covers.
  for (int window = 0; window < 8; ++window) {
    const Addr wb = rng.NextBelow(kSpace);
    const Addr we = wb + rng.NextBelow(kSpace - wb + 1);
    std::vector<Map::Interval> seen;
    map.ForEachIn(wb, we, [&](const Map::Interval& iv) { seen.push_back(iv); });
    ASSERT_EQ(Spans(seen), Spans(model.Pieces(wb, we)))
        << "window [" << wb << "," << we << ") step " << step;
    bool covered = true;
    for (Addr a = wb; a < we; ++a) {
      covered = covered && model.Find(a).has_value();
    }
    ASSERT_EQ(map.Covers(wb, we), covered)
        << "window [" << wb << "," << we << ") step " << step;
  }

  // Structural invariants: sorted, disjoint, non-empty, coalesced.
  Addr prev_end = 0;
  int prev_value = -1;
  bool first = true;
  bool adjacent_equal = false;
  map.ForEach([&](const Map::Interval& iv) {
    ASSERT_LT(iv.begin, iv.end);
    if (!first) {
      ASSERT_GE(iv.begin, prev_end);
      if (iv.begin == prev_end && iv.value == prev_value) {
        adjacent_equal = true;
      }
    }
    prev_end = iv.end;
    prev_value = iv.value;
    first = false;
  });
  ASSERT_FALSE(adjacent_equal) << "uncoalesced adjacent intervals at step " << step;
}

class IntervalMapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalMapProperty, MatchesByteLevelModelUnderRandomOps) {
  Rng rng(GetParam());
  Map map;
  ReferenceModel model;

  for (int step = 0; step < 400; ++step) {
    Addr b = rng.NextBelow(kSpace - 1);
    Addr e = b + 1 + rng.NextBelow(kSpace - b - 1);
    const int v = static_cast<int>(rng.NextBelow(3));
    if (!map.empty() && rng.NextBool(0.2)) {
      // Aim at the first or the last interval: exactly it, or from its
      // begin, or up to its end.
      const std::vector<Map::Interval> all = Collect(map);
      const Map::Interval& edge = rng.NextBool(0.5) ? all.front() : all.back();
      const std::uint64_t shape = rng.NextBelow(3);
      b = shape == 2 ? std::min(b, edge.end - 1) : edge.begin;
      e = shape == 1 ? std::max(e, edge.begin + 1) : edge.end;
    }
    if (rng.NextBool(0.7)) {
      map.Assign(b, e, v);
      model.Assign(b, e, v);
    } else {
      map.Erase(b, e);
      model.Erase(b, e);
    }

    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(map, model, rng, step));
  }
}

// Ascending-heavy ops, the way staging and insertion build maps: most
// assigns start at or past the last interval's end, touching it or past a
// gap, with its value or another; the rest assign or erase anywhere. The
// map starts over when an append would leave the space.
TEST_P(IntervalMapProperty, MatchesByteLevelModelUnderAscendingOps) {
  Rng rng(GetParam());
  Map map;
  ReferenceModel model;

  for (int step = 0; step < 400; ++step) {
    const std::vector<Map::Interval> all = Collect(map);
    if (rng.NextBool(0.75)) {
      const Addr b = (all.empty() ? 0 : all.back().end) +
                     (rng.NextBool(0.5) ? 0 : 1 + rng.NextBelow(3));
      const int tail_value = all.empty() ? 0 : all.back().value;
      const int v = rng.NextBool(0.5)
                        ? tail_value
                        : (tail_value + 1 + static_cast<int>(rng.NextBelow(2))) % 3;
      if (b >= kSpace) {
        map.Clear();
        model = ReferenceModel{};
      } else {
        const Addr e = std::min(kSpace, b + 1 + rng.NextBelow(8));
        map.Assign(b, e, v);
        model.Assign(b, e, v);
      }
    } else {
      const Addr b = rng.NextBelow(kSpace - 1);
      const Addr e = b + 1 + rng.NextBelow(kSpace - b - 1);
      const int v = static_cast<int>(rng.NextBelow(3));
      if (rng.NextBool(0.6)) {
        map.Assign(b, e, v);
        model.Assign(b, e, v);
      } else {
        map.Erase(b, e);
        model.Erase(b, e);
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(map, model, rng, step));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalMapProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace accent
