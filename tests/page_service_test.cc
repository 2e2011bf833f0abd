// Content-addressed page service tests (docs/INTERNALS.md §15): the
// PageHash identity discipline, ContentCache LRU lifecycle, PageDirectory
// propagation/crash handling, and the holder-crash fault-walk fallback.
#include <map>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "src/experiments/scenario.h"
#include "src/experiments/testbed.h"
#include "src/net/page_service.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// ---------------------------------------------------------------------------
// Identity properties: equal payloads <=> equal hashes.

TEST(PageHashProperty, EqualPayloadsHashEqually) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const PageData a = MakePatternPage(seed);
    const PageData b = MakePatternPage(seed);  // regenerated, not copied
    EXPECT_EQ(ComputePageHash(a), ComputePageHash(b)) << "seed " << seed;
    // The PageRef memo agrees with the free function.
    EXPECT_EQ(PageRef(a).Hash(), ComputePageHash(b)) << "seed " << seed;
  }
  // The interned zero page, an empty PageData and a materialised all-zero
  // page are the same logical contents and must share one hash.
  EXPECT_EQ(PageRef{}.Hash(), ZeroPageHash());
  EXPECT_EQ(ComputePageHash(PageData{}), ZeroPageHash());
  EXPECT_EQ(ComputePageHash(PageData(kPageSize, 0)), ZeroPageHash());
}

TEST(PageHashProperty, DistinctPayloadsHashDistinctly) {
  // Sample the page universe the simulator actually produces — pattern
  // pages plus the single-byte mutations workload traces perform — and
  // require every distinct payload to get a distinct hash.
  std::map<PageHash, std::uint64_t> seen;
  std::uint64_t label = 0;
  auto expect_fresh = [&](const PageData& page) {
    const PageHash hash = ComputePageHash(page);
    ++label;
    const auto [it, inserted] = seen.emplace(hash, label);
    EXPECT_TRUE(inserted) << "pages " << it->second << " and " << label
                          << " collide on the 128-bit content hash";
  };
  for (std::uint64_t seed = 1; seed <= 512; ++seed) {
    expect_fresh(MakePatternPage(seed));
  }
  // Single-byte mutations of one base page, at every offset stride.
  const PageData base = MakePatternPage(99);
  for (ByteCount offset = 0; offset < kPageSize; offset += 7) {
    PageData mutated = base;
    mutated[offset] ^= 0x01;
    expect_fresh(mutated);
  }
  // Position sensitivity: the same words shifted by one slot must not alias.
  PageData rotated = base;
  std::rotate(rotated.begin(), rotated.begin() + 8, rotated.end());
  expect_fresh(rotated);
  EXPECT_EQ(seen.count(ZeroPageHash()), 0u);
}

// ---------------------------------------------------------------------------
// The deliberate collision: integrity checksums are never dedup identity.
//
// A full 64-bit FNV collision costs a 2^32 birthday search — outside any
// unit-test budget — but the weakness scales linearly: colliding the
// checksum truncated to k bits costs ~2^(k/2) work. Mining a 32-bit
// collision here takes milliseconds, which is exactly why a linearly-mixed
// 64-bit checksum must never name content: its collision margin is mineable
// dust next to the avalanche-mixed 128-bit PageHash, and the cache enforces
// that by re-verifying bytes against the full PageHash at every insertion.
TEST(DeliberateCollision, MinedChecksumCollisionNeverAliasesDedupIdentity) {
  std::unordered_map<std::uint32_t, std::uint64_t> low_bits_seen;
  std::uint64_t seed_a = 0;
  std::uint64_t seed_b = 0;
  for (std::uint64_t seed = 1; seed < 1u << 20; ++seed) {
    const auto low = static_cast<std::uint32_t>(PageIntegrityChecksum(MakePatternPage(seed)));
    const auto [it, inserted] = low_bits_seen.emplace(low, seed);
    if (!inserted) {
      seed_a = it->second;
      seed_b = seed;
      break;
    }
  }
  ASSERT_NE(seed_a, 0u) << "no truncated-checksum collision in 2^20 pages";

  const PageData a = MakePatternPage(seed_a);
  const PageData b = MakePatternPage(seed_b);
  ASSERT_NE(a, b);
  ASSERT_EQ(static_cast<std::uint32_t>(PageIntegrityChecksum(a)),
            static_cast<std::uint32_t>(PageIntegrityChecksum(b)));

  // The deliberately-collided pair stays fully separated under PageHash...
  const PageRef ref_a(a);
  const PageRef ref_b(b);
  ASSERT_NE(ref_a.Hash(), ref_b.Hash());

  // ...and the cache can never cross-serve them: each hash yields exactly
  // its own bytes, and the colliding sibling's hash stays a miss.
  ContentCache cache(/*capacity_pages=*/16);
  EXPECT_TRUE(cache.InsertVerified(ref_a.Hash(), ref_a));
  const PageRef* hit = cache.Lookup(ref_a.Hash());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, a);
  EXPECT_EQ(cache.Lookup(ref_b.Hash()), nullptr);

  // Forged identity — page B claiming page A's name — is rejected and
  // counted, and the cache still serves A's exact bytes afterwards.
  EXPECT_FALSE(cache.InsertVerified(ref_a.Hash(), ref_b));
  EXPECT_EQ(cache.stats().hash_mismatches, 1u);
  hit = cache.Lookup(ref_a.Hash());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, a);
}

// ---------------------------------------------------------------------------
// ContentCache lifecycle.

TEST(ContentCacheTest, LruEvictsColdestUnderCapacityPressure) {
  ContentCache cache(/*capacity_pages=*/3);
  std::vector<PageRef> pages;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    pages.emplace_back(MakePatternPage(seed));
  }

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache.InsertVerified(pages[i].Hash(), pages[i]));
  }
  ASSERT_EQ(cache.size_pages(), 3);
  // Touch page 0 so page 1 becomes the LRU victim.
  ASSERT_NE(cache.Lookup(pages[0].Hash()), nullptr);

  ASSERT_TRUE(cache.InsertVerified(pages[3].Hash(), pages[3]));
  EXPECT_EQ(cache.size_pages(), 3);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Contains(pages[1].Hash())) << "victim must be the coldest entry";
  EXPECT_TRUE(cache.Contains(pages[0].Hash()));
  EXPECT_TRUE(cache.Contains(pages[2].Hash()));

  // Pressure keeps working: one more insertion evicts exactly one more.
  ASSERT_TRUE(cache.InsertVerified(pages[4].Hash(), pages[4]));
  EXPECT_EQ(cache.size_pages(), 3);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.Contains(pages[2].Hash()));
  EXPECT_EQ(cache.stats().insertions, 5u);
}

TEST(ContentCacheTest, ZeroPagesAndDuplicatesDoNotConsumeCapacity) {
  ContentCache cache(/*capacity_pages=*/4);
  EXPECT_FALSE(cache.InsertVerified(ZeroPageHash(), PageRef{}));
  EXPECT_EQ(cache.size_pages(), 0);

  const PageRef page(MakePatternPage(7));
  EXPECT_TRUE(cache.InsertVerified(page.Hash(), page));
  EXPECT_TRUE(cache.InsertVerified(page.Hash(), page));  // re-insert: refresh, no growth
  EXPECT_EQ(cache.size_pages(), 1);
}

// ---------------------------------------------------------------------------
// PageDirectory: propagation, ranking, crash handling.

TEST(PageDirectoryTest, AnnouncementsBecomeVisibleAfterPropagation) {
  PageDirectory directory(/*propagation=*/Ms(4));
  const PageHash hash = ComputePageHash(MakePatternPage(1));
  directory.SetServicePort(HostId(2), PortId(20));
  directory.RecordHolder(hash, HostId(2), SimTime(0));

  EXPECT_FALSE(directory.NearestHolder(hash, SimTime(0) + Ms(3), HostId(3), HostId(1))
                   .has_value())
      << "a probe must be able to race an announcement";
  const auto holder = directory.NearestHolder(hash, SimTime(0) + Ms(4), HostId(3), HostId(1));
  ASSERT_TRUE(holder.has_value());
  EXPECT_EQ(*holder, HostId(2));
}

TEST(PageDirectoryTest, RanksHoldersByLinkCostAndExcludesParties) {
  PageDirectory directory(Ms(0));
  const PageHash hash = ComputePageHash(MakePatternPage(2));
  directory.SetHostRank(HostId(2), 2.0);
  directory.SetHostRank(HostId(3), 1.0);  // cheaper link
  directory.SetServicePort(HostId(2), PortId(20));
  directory.SetServicePort(HostId(3), PortId(30));
  directory.RecordHolder(hash, HostId(2), SimTime(0));
  directory.RecordHolder(hash, HostId(3), SimTime(0));

  auto holder = directory.NearestHolder(hash, SimTime(0), HostId(4), HostId(1));
  ASSERT_TRUE(holder.has_value());
  EXPECT_EQ(*holder, HostId(3));
  // The querying host and the origin never count as holders.
  holder = directory.NearestHolder(hash, SimTime(0), HostId(3), HostId(1));
  ASSERT_TRUE(holder.has_value());
  EXPECT_EQ(*holder, HostId(2));
  EXPECT_FALSE(directory.NearestHolder(hash, SimTime(0), HostId(3), HostId(2)).has_value());
}

TEST(PageDirectoryTest, DropHostForgetsEveryHolding) {
  PageDirectory directory(Ms(0));
  const PageHash h1 = ComputePageHash(MakePatternPage(1));
  const PageHash h2 = ComputePageHash(MakePatternPage(2));
  directory.SetServicePort(HostId(2), PortId(20));
  directory.RecordHolder(h1, HostId(2), SimTime(0));
  directory.RecordHolder(h2, HostId(2), SimTime(0));

  directory.DropHost(HostId(2));
  EXPECT_FALSE(directory.NearestHolder(h1, SimTime(0), HostId(3), HostId(1)).has_value());
  EXPECT_FALSE(directory.NearestHolder(h2, SimTime(0), HostId(3), HostId(1)).has_value());
  EXPECT_EQ(directory.hosts_dropped(), 1u);

  // The host may come back and re-announce; old entries never resurface.
  directory.RecordHolder(h1, HostId(2), SimTime(0));
  EXPECT_TRUE(directory.NearestHolder(h1, SimTime(0), HostId(3), HostId(1)).has_value());
  EXPECT_FALSE(directory.NearestHolder(h2, SimTime(0), HostId(3), HostId(1)).has_value());
}

// ---------------------------------------------------------------------------
// Holder crash mid-fault: the walk falls back to the origin, no hang.

TEST(PageServiceFaultWalk, HolderCrashMidFaultFallsBackToOrigin) {
  TestbedConfig config;
  config.host_count = 3;
  config.content_cache = true;
  // Host index 1 (HostId 2) — the first destination, hence the only
  // non-origin holder — dies for good at 150 s, before the second
  // migration's faults go looking for it.
  config.fault_plan.crashes.push_back(CrashWindow{HostId(2), SimTime(0) + Sec(150.0),
                                                  kFaultForever});
  Testbed bed(config);
  const std::uint64_t reference = ReferenceChecksum("Minprog", 42);

  // Round 1, 0 -> 1: seeds host 1's ContentCache with the image and
  // announces it in the directory.
  WorkloadInstance first = BuildWorkload(WorkloadByName("Minprog"), bed.host(0), 42);
  bed.manager(0)->RegisterLocal(first.process.get());
  Process* landed1 = nullptr;
  bed.manager(1)->set_on_insert([&](Process* inserted) { landed1 = inserted; });
  bool migrated1 = false;
  bed.manager(0)->Migrate(first.process.get(), bed.manager(1)->port(),
                          TransferStrategy::kPureIou,
                          [&](const MigrationRecord&) { migrated1 = true; });

  // Round 2, 0 -> 2, launched only after the holder is dead: the fault
  // walk's holder pulls must time out, drop host 1 from the directory and
  // re-pull from the origin.
  WorkloadInstance second = BuildWorkload(WorkloadByName("Minprog"), bed.host(0), 42);
  Process* landed2 = nullptr;
  bed.manager(2)->set_on_insert([&](Process* inserted) { landed2 = inserted; });
  bool migrated2 = false;
  bed.sim().ScheduleAt(SimTime(0) + Sec(200.0), [&] {
    bed.manager(0)->RegisterLocal(second.process.get());
    bed.manager(0)->Migrate(second.process.get(), bed.manager(2)->port(),
                            TransferStrategy::kPureIou,
                            [&](const MigrationRecord&) { migrated2 = true; });
  });

  ASSERT_TRUE(bed.RunGuarded(Sec(3600.0))) << "holder crash must never strand a fault";
  ASSERT_TRUE(migrated1 && landed1 != nullptr && landed1->done());
  ASSERT_TRUE(migrated2 && landed2 != nullptr && landed2->done());

  // Both incarnations observed exactly the reference contents.
  EXPECT_EQ(ObservableChecksum(*landed1->space(), bed.segments(), first.planned_touches),
            reference);
  EXPECT_EQ(ObservableChecksum(*landed2->space(), bed.segments(), second.planned_touches),
            reference);

  const PagerStats& stats = bed.pager(2)->stats();
  EXPECT_GE(stats.cache_holder_failovers, 1u) << "round 2 never probed the dead holder";
  EXPECT_EQ(stats.cache_pages_from_holders, 0u) << "a dead holder cannot serve payload";
  EXPECT_EQ(stats.cache_hash_rejects, 0u);
  EXPECT_GE(bed.page_directory()->hosts_dropped(), 1u)
      << "the timed-out holder must be dropped from the directory";
  EXPECT_GT(stats.imag_pages_fetched, 0u) << "the origin served the fallback pulls";
}

}  // namespace
}  // namespace accent
