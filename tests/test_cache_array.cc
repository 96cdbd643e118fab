/**
 * @file
 * Unit tests for the generic set-associative cache array, in both its
 * physical-tag and virtual-tag (ASID + per-line permission) roles.
 */

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

CacheParams
smallCache(bool write_back = false)
{
    CacheParams p;
    p.size_bytes = 4 * 1024; // 32 lines
    p.assoc = 4;
    p.write_back = write_back;
    return p;
}

TEST(CacheArray, MissThenHit)
{
    CacheArray c(smallCache());
    EXPECT_FALSE(c.access(0, 0x1000, false, 0));
    c.insert(0, 0x1000, kPermRead, false, 0);
    EXPECT_TRUE(c.access(0, 0x1000, false, 1));
    EXPECT_TRUE(c.access(0, 0x1000 + kLineSize - 1, false, 2));
    EXPECT_FALSE(c.access(0, 0x1000 + kLineSize, false, 3));
}

TEST(CacheArray, PresentHasNoSideEffects)
{
    CacheArray c(smallCache());
    c.insert(0, 0x1000, kPermRead, false, 0);
    const auto hits = c.hits();
    EXPECT_TRUE(c.present(0, 0x1000));
    EXPECT_EQ(c.hits(), hits);
}

TEST(CacheArray, AsidDistinguishesLines)
{
    CacheArray c(smallCache());
    c.insert(1, 0x1000, kPermRead, false, 0);
    EXPECT_TRUE(c.present(1, 0x1000));
    EXPECT_FALSE(c.present(2, 0x1000));
}

TEST(CacheArray, WriteBackStoresDirtyTheLine)
{
    CacheArray c(smallCache(true));
    c.insert(0, 0x1000, kPermRead | kPermWrite, false, 0);
    c.access(0, 0x1000, true, 1);
    const auto info = c.invalidateLine(0, 0x1000);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->dirty);
}

TEST(CacheArray, WriteThroughStoresDoNotDirty)
{
    CacheArray c(smallCache(false));
    c.insert(0, 0x1000, kPermRead | kPermWrite, false, 0);
    c.access(0, 0x1000, true, 1);
    const auto info = c.invalidateLine(0, 0x1000);
    ASSERT_TRUE(info.has_value());
    EXPECT_FALSE(info->dirty);
}

TEST(CacheArray, EvictionReturnsVictimMetadata)
{
    CacheParams p = smallCache(true);
    p.size_bytes = 4 * unsigned(kLineSize); // 1 set of 4 ways
    p.assoc = 4;
    CacheArray c(p);
    // Fill one set (all addresses map to set 0 with one set total).
    for (int i = 0; i < 4; ++i)
        c.insert(0, std::uint64_t(i) * kLineSize, kPermRead, i == 2, 0);
    const auto victim =
        c.insert(0, 99 * kLineSize, kPermRead, false, 10);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line_addr, 0u); // LRU was the first inserted
}

TEST(CacheArray, LruRespectsAccessRecency)
{
    CacheParams p = smallCache();
    p.size_bytes = 2 * unsigned(kLineSize);
    p.assoc = 2;
    CacheArray c(p);
    c.insert(0, 0 * kLineSize, kPermRead, false, 0);
    c.insert(0, 1 * kLineSize, kPermRead, false, 1);
    c.access(0, 0, false, 2); // line 0 is now MRU
    c.insert(0, 7 * kLineSize, kPermRead, false, 3);
    EXPECT_TRUE(c.present(0, 0));
    EXPECT_FALSE(c.present(0, 1 * kLineSize));
}

TEST(CacheArray, LinePermsReported)
{
    CacheArray c(smallCache());
    c.insert(3, 0x2000, kPermRead, false, 0);
    const auto perms = c.linePerms(3, 0x2000);
    ASSERT_TRUE(perms.has_value());
    EXPECT_EQ(*perms, kPermRead);
    EXPECT_FALSE(c.linePerms(3, 0x3000).has_value());
}

TEST(CacheArray, InvalidatePageRemovesWholePage)
{
    CacheArray c(CacheParams{64 * 1024, 8});
    const std::uint64_t page = 0x5000;
    for (unsigned i = 0; i < kLinesPerPage; ++i)
        c.insert(0, page * kPageSize + i * kLineSize, kPermRead, false,
                 0);
    unsigned evicted = 0;
    const unsigned n = c.invalidatePage(
        0, page * kPageSize, [&](const CacheLineInfo &) { ++evicted; });
    EXPECT_EQ(n, kLinesPerPage);
    EXPECT_EQ(evicted, kLinesPerPage);
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(CacheArray, InvalidateAllVisitsEveryLine)
{
    CacheArray c(smallCache(true));
    c.insert(0, 0x0, kPermRead, true, 0);
    c.insert(0, 0x1000, kPermRead, false, 0);
    unsigned dirty = 0, clean = 0;
    c.invalidateAll([&](const CacheLineInfo &info) {
        (info.dirty ? dirty : clean) += 1;
    });
    EXPECT_EQ(dirty, 1u);
    EXPECT_EQ(clean, 1u);
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(CacheArray, LifetimesRecorded)
{
    CacheParams p = smallCache();
    p.track_lifetimes = true;
    CacheArray c(p);
    c.insert(0, 0x1000, kPermRead, false, 100);
    c.access(0, 0x1000, false, 400);
    c.invalidateLine(0, 0x1000);
    EXPECT_EQ(c.lifetimes().distribution().count(), 1u);
    EXPECT_EQ(c.lifetimes().distribution().mean(), 300.0);
}

TEST(CacheArray, FlushLifetimesCoversResidents)
{
    CacheParams p = smallCache();
    p.track_lifetimes = true;
    CacheArray c(p);
    c.insert(0, 0x1000, kPermRead, false, 0);
    c.access(0, 0x1000, false, 50);
    c.flushLifetimes();
    EXPECT_EQ(c.lifetimes().distribution().count(), 1u);
}

TEST(CacheArray, LookupCountsNothingUntilTheOutcomeIsBooked)
{
    CacheArray c(smallCache(/*write_back=*/true));
    c.insert(3, 0x1000, kPermRead | kPermWrite, false, 0);
    const auto way = c.lookup(3, 0x1000);
    ASSERT_TRUE(way.has_value());
    EXPECT_EQ(way->perms, kPermRead | kPermWrite);
    EXPECT_FALSE(c.lookup(4, 0x1000).has_value()); // other ASID
    EXPECT_EQ(c.accesses(), 0u);
    c.recordHit(*way, /*is_write=*/true, 5);
    c.recordMiss(/*is_write=*/false);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    const CacheLineInfo info = c.invalidate(*way);
    EXPECT_TRUE(info.dirty); // write-back write hit
    EXPECT_EQ(info.asid, 3u);
    EXPECT_EQ(info.line_addr, 0x1000u);
    EXPECT_FALSE(c.present(3, 0x1000));
    EXPECT_EQ(c.invalidations(), 1u);
}

TEST(CacheArray, InsertIfAbsentLeavesAResidentLineAlone)
{
    CacheArray c(smallCache());
    EXPECT_TRUE(c.insertIfAbsent(0, 0x1000, kPermRead, false, 0).inserted);
    const CacheFill again =
        c.insertIfAbsent(0, 0x1000, kPermRead | kPermWrite, true, 1);
    EXPECT_FALSE(again.inserted);
    EXPECT_FALSE(again.victim.has_value());
    EXPECT_EQ(c.fills(), 1u);
    EXPECT_EQ(c.linePerms(0, 0x1000), kPermRead); // not updated
}

TEST(CacheArray, NonPowerOfTwoSetCountIndexesByModulo)
{
    CacheParams p = smallCache();
    p.size_bytes = 12 * 1024; // 96 lines, 4-way: 24 sets
    CacheArray c(p);
    ASSERT_EQ(c.numSets(), 24u);
    // Lines 24 apart share a set: the fifth one evicts the first.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_FALSE(c.insert(0, 5 * kLineSize + i * 24 * kLineSize,
                              kPermRead, false, Tick(i)));
    const auto victim =
        c.insert(0, 5 * kLineSize + 4 * 24 * kLineSize, kPermRead, false, 4);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line_addr, 5 * kLineSize);
}

TEST(CacheArrayDeath, RejectsLineSizeThatIsNotAPowerOfTwo)
{
    CacheParams p = smallCache();
    p.line_bytes = 96;
    EXPECT_DEATH(CacheArray{p}, "line size must be a power of two");
}

/** Parameterized property: residency never exceeds capacity, and the
 *  most recently inserted line is always resident. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, CapacityAndMruInvariants)
{
    const auto [kb, assoc] = GetParam();
    CacheParams p;
    p.size_bytes = kb * 1024ull;
    p.assoc = assoc;
    CacheArray c(p);
    const std::uint64_t lines = p.size_bytes / kLineSize;
    Rng rng(kb * 7919 + assoc);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t addr = rng.below(4096) * kLineSize;
        c.insert(0, addr, kPermRead, false, Tick(i));
        ASSERT_TRUE(c.present(0, addr));
        ASSERT_LE(c.residentLines(), lines);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(4u, 2u), std::make_tuple(8u, 4u),
                      std::make_tuple(32u, 8u),
                      std::make_tuple(64u, 16u),
                      std::make_tuple(16u, 1u),
                      // 24 and 48 sets: not powers of two.
                      std::make_tuple(12u, 4u),
                      std::make_tuple(48u, 8u)));

} // namespace
} // namespace gvc
