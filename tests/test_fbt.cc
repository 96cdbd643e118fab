/**
 * @file
 * Unit tests for the Forward-Backward Table: leading-VA discipline,
 * synonym detection, read-write synonym faults, bit-vector maintenance,
 * shootdowns, paired BT/FT eviction, large pages, and the randomized
 * invariant sweep.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/fbt.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

FbtParams
tiny(unsigned entries = 64)
{
    FbtParams p;
    p.entries = entries;
    p.bt_assoc = 4;
    p.ft_assoc = 4;
    return p;
}

TEST(Fbt, FirstTouchBecomesLeading)
{
    Fbt fbt(tiny());
    const auto c = fbt.onCacheMiss(0, 100, 555, kPermRead, 3, false);
    EXPECT_EQ(c.kind, SynonymCheck::Kind::kNewLeading);
    EXPECT_EQ(c.leading_vpn, 100u);
    EXPECT_FALSE(c.line_cached);
    EXPECT_TRUE(c.victims.empty());
    EXPECT_EQ(fbt.validEntries(), 1u);
    EXPECT_TRUE(fbt.consistent());
}

TEST(Fbt, LeadingMatchOnRepeatAccess)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(0, 100, 555, kPermRead, 3, false);
    const auto c = fbt.onCacheMiss(0, 100, 555, kPermRead, 4, false);
    EXPECT_EQ(c.kind, SynonymCheck::Kind::kLeadingMatch);
}

TEST(Fbt, ReadOnlySynonymIsReplayable)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(1, 100, 555, kPermRead, 3, false);
    fbt.lineFilled(1, 100, 3);
    // A different virtual name for the same frame.
    const auto c = fbt.onCacheMiss(1, 200, 555, kPermRead, 3, false);
    EXPECT_EQ(c.kind, SynonymCheck::Kind::kSynonym);
    EXPECT_EQ(c.leading_vpn, 100u);
    EXPECT_EQ(c.leading_asid, 1u);
    EXPECT_TRUE(c.line_cached);
    EXPECT_EQ(fbt.synonymAccesses(), 1u);
}

TEST(Fbt, CrossAsidSynonymDetected)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(1, 100, 555, kPermRead, 0, false);
    const auto c = fbt.onCacheMiss(2, 100, 555, kPermRead, 0, false);
    EXPECT_EQ(c.kind, SynonymCheck::Kind::kSynonym);
    EXPECT_EQ(c.leading_asid, 1u);
}

TEST(Fbt, WriteThenSynonymReadFaults)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(0, 100, 555, kPermRead | kPermWrite, 0,
                    /*is_write=*/true);
    const auto c = fbt.onCacheMiss(0, 200, 555, kPermRead, 0, false);
    EXPECT_EQ(c.kind, SynonymCheck::Kind::kRwFault);
    EXPECT_EQ(fbt.rwFaults(), 1u);
}

TEST(Fbt, SynonymWriteToReadPageFaults)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(0, 100, 555, kPermRead, 0, false);
    const auto c = fbt.onCacheMiss(0, 200, 555, kPermRead | kPermWrite,
                                   0, /*is_write=*/true);
    EXPECT_EQ(c.kind, SynonymCheck::Kind::kRwFault);
}

TEST(Fbt, MarkWrittenViaLeadingTriggersLaterFault)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(0, 100, 555, kPermRead | kPermWrite, 0, false);
    fbt.markWritten(0, 100);
    const auto c = fbt.onCacheMiss(0, 300, 555, kPermRead, 0, false);
    EXPECT_EQ(c.kind, SynonymCheck::Kind::kRwFault);
}

TEST(Fbt, BitVectorTracksFillsAndEvictions)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(0, 100, 555, kPermRead, 7, false);
    fbt.lineFilled(0, 100, 7);
    fbt.lineFilled(0, 100, 8);
    auto r = fbt.reverseLookup(555, 7);
    EXPECT_TRUE(r.present);
    EXPECT_TRUE(r.line_cached);
    fbt.lineEvicted(0, 100, 7);
    r = fbt.reverseLookup(555, 7);
    EXPECT_FALSE(r.line_cached);
    EXPECT_TRUE(fbt.reverseLookup(555, 8).line_cached);
}

TEST(Fbt, ForwardLookupActsAsSecondLevelTlb)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(3, 100, 555, kPermRead, 0, false);
    const auto hit = fbt.forwardLookup(3, 100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ppn, 555u);
    EXPECT_FALSE(fbt.forwardLookup(3, 101).has_value());
    EXPECT_FALSE(fbt.forwardLookup(4, 100).has_value());
    EXPECT_GT(snapshotOf(fbt).get("ft_hits"), 0u);
}

TEST(Fbt, ReverseLookupFiltersUncachedFrames)
{
    Fbt fbt(tiny());
    const auto r = fbt.reverseLookup(999, 0);
    EXPECT_FALSE(r.present);
    EXPECT_EQ(fbt.probesFiltered(), 1u);
}

TEST(Fbt, ShootdownByLeadingVaPurges)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(0, 100, 555, kPermRead, 0, false);
    fbt.lineFilled(0, 100, 5);
    const auto page = fbt.shootdownPage(0, 100);
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(page->ppn, 555u);
    EXPECT_EQ(page->line_bits, std::uint32_t{1} << 5);
    EXPECT_EQ(fbt.validEntries(), 0u);
    EXPECT_TRUE(fbt.consistent());
}

TEST(Fbt, ShootdownOfUnknownVaIsFiltered)
{
    Fbt fbt(tiny());
    EXPECT_FALSE(fbt.shootdownPage(0, 12345).has_value());
    EXPECT_EQ(fbt.shootdownsFiltered(), 1u);
}

TEST(Fbt, ShootdownAllByAsid)
{
    Fbt fbt(tiny());
    fbt.onCacheMiss(1, 100, 555, kPermRead, 0, false);
    fbt.onCacheMiss(1, 101, 556, kPermRead, 0, false);
    fbt.onCacheMiss(2, 100, 557, kPermRead, 0, false);
    const auto pages = fbt.shootdownAll(Asid{1});
    EXPECT_EQ(pages.size(), 2u);
    EXPECT_EQ(fbt.validEntries(), 1u);
    EXPECT_TRUE(fbt.consistent());
}

TEST(Fbt, CapacityEvictionReportsVictims)
{
    Fbt fbt(tiny(16)); // 4 sets x 4 ways each side
    std::size_t victims = 0;
    for (Ppn p = 0; p < 64; ++p) {
        const auto c =
            fbt.onCacheMiss(0, 1000 + p, p, kPermRead, 0, false);
        victims += c.victims.size();
        ASSERT_TRUE(fbt.consistent());
    }
    EXPECT_GT(victims, 0u);
    EXPECT_LE(fbt.validEntries(), 16u);
    EXPECT_EQ(snapshotOf(fbt).get("capacity_evictions"), victims);
}

TEST(Fbt, LargePageCounterMode)
{
    Fbt fbt(tiny());
    const auto c = fbt.onCacheMissLarge(0, 0x400, 0x10000,
                                        kPermRead | kPermWrite, false);
    EXPECT_EQ(c.kind, SynonymCheck::Kind::kNewLeading);
    fbt.lineFilled(0, 0x400, 0); // counter mode ignores the index
    fbt.lineFilled(0, 0x400, 0);
    EXPECT_TRUE(fbt.reverseLookup(0x10000, 31).line_cached);
    fbt.lineEvicted(0, 0x400, 0);
    EXPECT_TRUE(fbt.reverseLookup(0x10000, 0).line_cached);
    fbt.lineEvicted(0, 0x400, 0);
    EXPECT_FALSE(fbt.reverseLookup(0x10000, 0).line_cached);
}

TEST(Fbt, LargePageSynonymAndFaultRules)
{
    Fbt fbt(tiny());
    fbt.onCacheMissLarge(0, 0x400, 0x10000, kPermRead, false);
    const auto syn =
        fbt.onCacheMissLarge(0, 0x800, 0x10000, kPermRead, false);
    EXPECT_EQ(syn.kind, SynonymCheck::Kind::kSynonym);
    const auto fault =
        fbt.onCacheMissLarge(0, 0xC00, 0x10000, kPermRead, true);
    EXPECT_EQ(fault.kind, SynonymCheck::Kind::kRwFault);
}

TEST(Fbt, HasLeadingReflectsLiveEntries)
{
    Fbt fbt(tiny());
    EXPECT_FALSE(fbt.hasLeading(0, 100));
    fbt.onCacheMiss(0, 100, 555, kPermRead, 0, false);
    EXPECT_TRUE(fbt.hasLeading(0, 100));
    fbt.shootdownPage(0, 100);
    EXPECT_FALSE(fbt.hasLeading(0, 100));
}

/**
 * Randomized invariant sweep across FBT geometries: after any sequence
 * of allocations, fills, evictions, and shootdowns the BT/FT bijection
 * holds and valid entries never exceed capacity.
 */
class FbtProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FbtProperty, InvariantsUnderRandomOperations)
{
    const unsigned entries = GetParam();
    Fbt fbt(tiny(entries));
    Rng rng(entries * 1337);
    std::set<std::pair<Asid, Vpn>> live;
    for (int i = 0; i < 4000; ++i) {
        const auto op = rng.below(10);
        const Asid asid = Asid(rng.below(3));
        const Vpn vpn = 0x1000 + rng.below(256);
        // Deterministic VA->PA mapping (a VA never remaps without a
        // shootdown in a real system); distinct VAs may collide on the
        // same frame, which creates genuine synonyms.
        const Ppn ppn = 0x5000 + ((vpn * 3 + asid * 7) % 192);
        if (op < 6) {
            const auto c = fbt.onCacheMiss(asid, vpn, ppn, kPermRead,
                                           unsigned(rng.below(32)),
                                           false);
            if (c.kind == SynonymCheck::Kind::kNewLeading)
                live.insert({asid, vpn});
            for (const auto &v : c.victims)
                live.erase({v.asid, v.leading_vpn});
        } else if (op < 8) {
            const auto page = fbt.shootdownPage(asid, vpn);
            if (page)
                live.erase({asid, vpn});
        } else if (op < 9 && !live.empty()) {
            const auto &[la, lv] = *live.begin();
            fbt.lineFilled(la, lv, unsigned(rng.below(32)));
        } else {
            fbt.forwardLookup(asid, vpn);
        }
        ASSERT_TRUE(fbt.consistent());
        ASSERT_LE(fbt.validEntries(), entries);
    }
    // Every tracked live page still has a leading entry.
    for (const auto &[asid, vpn] : live)
        EXPECT_TRUE(fbt.hasLeading(asid, vpn));
}

INSTANTIATE_TEST_SUITE_P(Geometries, FbtProperty,
                         ::testing::Values(16u, 64u, 256u, 1024u));

} // namespace
} // namespace gvc
