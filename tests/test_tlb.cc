/**
 * @file
 * Unit tests for the set-associative TLB, including the parameterized
 * geometry sweep used by the Figure 2 experiments.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/rng.hh"
#include "tlb/tlb.hh"

namespace gvc
{
namespace
{

TlbLookup
xlate(Ppn ppn, Perms perms = kPermRead | kPermWrite)
{
    return TlbLookup{ppn, perms, false};
}

TEST(Tlb, MissThenHitAfterInsert)
{
    Tlb tlb(TlbParams{32, 0, false, false});
    EXPECT_FALSE(tlb.lookup(0, 5, 0).has_value());
    tlb.insert(0, 5, xlate(50), 0);
    const auto hit = tlb.lookup(0, 5, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ppn, 50u);
    EXPECT_EQ(tlb.accesses(), 2u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, AsidsAreDisjoint)
{
    Tlb tlb(TlbParams{32, 0, false, false});
    tlb.insert(1, 5, xlate(10), 0);
    tlb.insert(2, 5, xlate(20), 0);
    EXPECT_EQ(tlb.lookup(1, 5, 0)->ppn, 10u);
    EXPECT_EQ(tlb.lookup(2, 5, 0)->ppn, 20u);
}

TEST(Tlb, LruEvictionInFullyAssociative)
{
    Tlb tlb(TlbParams{4, 0, false, false});
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(0, v, xlate(v), 0);
    // Touch 0 so 1 becomes LRU.
    tlb.lookup(0, 0, 1);
    tlb.insert(0, 99, xlate(99), 2);
    EXPECT_TRUE(tlb.present(0, 0));
    EXPECT_FALSE(tlb.present(0, 1));
    EXPECT_TRUE(tlb.present(0, 99));
}

TEST(Tlb, ReinsertUpdatesInPlace)
{
    Tlb tlb(TlbParams{4, 0, false, false});
    tlb.insert(0, 7, xlate(70), 0);
    tlb.insert(0, 7, xlate(71), 1);
    EXPECT_EQ(tlb.lookup(0, 7, 2)->ppn, 71u);
}

TEST(Tlb, InvalidatePageRemovesOnlyThatPage)
{
    Tlb tlb(TlbParams{32, 0, false, false});
    tlb.insert(0, 1, xlate(1), 0);
    tlb.insert(0, 2, xlate(2), 0);
    EXPECT_TRUE(tlb.invalidatePage(0, 1));
    EXPECT_FALSE(tlb.present(0, 1));
    EXPECT_TRUE(tlb.present(0, 2));
    EXPECT_FALSE(tlb.invalidatePage(0, 1));
}

TEST(Tlb, InvalidateAsidKeepsOthers)
{
    Tlb tlb(TlbParams{32, 0, false, false});
    tlb.insert(1, 1, xlate(1), 0);
    tlb.insert(2, 1, xlate(2), 0);
    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.present(1, 1));
    EXPECT_TRUE(tlb.present(2, 1));
}

TEST(Tlb, InfiniteNeverEvicts)
{
    Tlb tlb(TlbParams{32, 0, /*infinite=*/true, false});
    for (Vpn v = 0; v < 10000; ++v)
        tlb.insert(0, v, xlate(v), 0);
    for (Vpn v = 0; v < 10000; ++v)
        EXPECT_TRUE(tlb.present(0, v));
}

TEST(Tlb, InfiniteInvalidateAsid)
{
    Tlb tlb(TlbParams{32, 0, true, false});
    tlb.insert(3, 42, xlate(1), 0);
    tlb.insert(4, 42, xlate(2), 0);
    tlb.invalidateAsid(3);
    EXPECT_FALSE(tlb.present(3, 42));
    EXPECT_TRUE(tlb.present(4, 42));
}

TEST(Tlb, LifetimesRecordedOnEviction)
{
    TlbParams p{1, 0, false, true};
    Tlb tlb(p);
    tlb.insert(0, 1, xlate(1), 100);
    tlb.insert(0, 2, xlate(2), 600); // evicts vpn 1 (lifetime 500)
    EXPECT_EQ(tlb.lifetimes().distribution().count(), 1u);
    EXPECT_EQ(tlb.lifetimes().distribution().mean(), 500.0);
}

/** A reach-r lookup result naming its aligned block explicitly. */
TlbLookup
reachXlate(Vpn base_vpn, Ppn base_ppn, unsigned reach,
           Perms perms = kPermRead | kPermWrite)
{
    return TlbLookup{base_ppn, perms, false, std::uint8_t(reach),
                     base_vpn, base_ppn};
}

TEST(TlbReach, WideEntryCoversEveryPage)
{
    Tlb tlb(TlbParams{32, 0, false, false, true, kMaxReachLog2});
    // One reach-3 entry: pages [8, 16) -> frames [80, 88).
    tlb.insert(0, 8, reachXlate(8, 80, 3), 0);
    for (Vpn v = 8; v < 16; ++v) {
        const auto hit = tlb.lookup(0, v, 1);
        ASSERT_TRUE(hit.has_value()) << "vpn " << v;
        EXPECT_EQ(hit->ppn, 80 + (v - 8));
        EXPECT_EQ(hit->reach, 3u);
        EXPECT_EQ(hit->base_vpn, 8u);
    }
    EXPECT_FALSE(tlb.lookup(0, 7, 2).has_value());
    EXPECT_FALSE(tlb.lookup(0, 16, 2).has_value());
    EXPECT_EQ(snapshotOf(tlb).get("reach_fills"), 1u);
    EXPECT_EQ(snapshotOf(tlb).get("reach_hits"), 8u);
}

TEST(TlbReach, FillDegradesToReachZeroAboveMaxReach)
{
    Tlb tlb(TlbParams{32, 0, false, false, true, /*max_reach=*/2});
    // Reach-4 fill (base vpn 64 -> ppn 640) requested through vpn 70.
    tlb.insert(0, 70, TlbLookup{646, kPermRead, false, 4, 64, 640}, 0);
    const auto hit = tlb.lookup(0, 70, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ppn, 646u); // requested page's own frame
    EXPECT_EQ(hit->reach, 0u);
    EXPECT_FALSE(tlb.present(0, 64)); // only the requested page cached
    EXPECT_EQ(snapshotOf(tlb).get("reach_fills"), 0u);
}

TEST(TlbReach, BuddyMergeClimbsTheLadder)
{
    TlbParams p{32, 0, false, false, true, kMaxReachLog2};
    p.merge_on_insert = true;
    Tlb tlb(p);
    // Four adjacent pages with contiguous frames merge 0->1->2.
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(0, v, xlate(100 + v), Tick(v));
    EXPECT_EQ(snapshotOf(tlb).get("merges"), 3u);
    const auto hit = tlb.lookup(0, 3, 10);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ppn, 103u);
    EXPECT_EQ(hit->reach, 2u);
    EXPECT_EQ(hit->base_vpn, 0u);
}

TEST(TlbReach, MergeRequiresPhysicalContiguity)
{
    TlbParams p{32, 0, false, false, true, kMaxReachLog2};
    p.merge_on_insert = true;
    Tlb tlb(p);
    tlb.insert(0, 0, xlate(100), 0);
    tlb.insert(0, 1, xlate(200), 1); // frames not adjacent
    EXPECT_EQ(snapshotOf(tlb).get("merges"), 0u);
    EXPECT_EQ(tlb.lookup(0, 0, 2)->reach, 0u);
    EXPECT_EQ(tlb.lookup(0, 1, 3)->reach, 0u);
}

TEST(TlbReach, MergeRequiresMatchingPerms)
{
    TlbParams p{32, 0, false, false, true, kMaxReachLog2};
    p.merge_on_insert = true;
    Tlb tlb(p);
    tlb.insert(0, 0, xlate(100, kPermRead), 0);
    tlb.insert(0, 1, xlate(101, kPermRead | kPermWrite), 1);
    EXPECT_EQ(snapshotOf(tlb).get("merges"), 0u);
}

TEST(TlbReach, ShootdownInsideWideEntryLeavesNoStaleMapping)
{
    Tlb tlb(TlbParams{32, 0, false, false, true, kMaxReachLog2});
    tlb.insert(0, 16, reachXlate(16, 160, 3), 0);
    // Invalidate one interior 4 KB page: the whole entry must die —
    // no page of the block may still translate afterwards.
    EXPECT_TRUE(tlb.invalidatePage(0, 19));
    for (Vpn v = 16; v < 24; ++v)
        EXPECT_FALSE(tlb.present(0, v)) << "stale vpn " << v;
}

TEST(TlbReach, ReachZeroConfigMatchesClassicCounters)
{
    // With max_reach 0 the reach machinery must be invisible: identical
    // hit/miss/fill trajectories to the classic TLB, no reach counters.
    Tlb classic(TlbParams{8, 2, false, false});
    TlbParams p{8, 2, false, false, true, 0};
    p.merge_on_insert = true; // inert without resident buddies > reach 0
    Tlb reach0(p);
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        const Vpn vpn = rng.below(64);
        if (!classic.lookup(1, vpn, Tick(i)).has_value())
            classic.insert(1, vpn, xlate(vpn + 1000), Tick(i));
        if (!reach0.lookup(1, vpn, Tick(i)).has_value())
            reach0.insert(1, vpn, xlate(vpn + 1000), Tick(i));
    }
    EXPECT_EQ(reach0.hits(), classic.hits());
    EXPECT_EQ(reach0.misses(), classic.misses());
    EXPECT_EQ(reach0.fills(), classic.fills());
    EXPECT_EQ(snapshotOf(reach0).get("reach_hits"), 0u);
    EXPECT_EQ(snapshotOf(reach0).get("reach_fills"), 0u);
    EXPECT_EQ(snapshotOf(reach0).get("merges"), 0u);
}

TEST(TlbReach, ReachNeverDecreasesHitRate)
{
    // Property: on a physically-contiguous sequential footprint, a
    // merge-enabled reach TLB hits at least as often as the classic one
    // of identical geometry (wide entries strictly add coverage).
    Tlb classic(TlbParams{16, 4, false, false});
    TlbParams p{16, 4, false, false, true, kMaxReachLog2};
    p.merge_on_insert = true;
    Tlb reach(p);
    Rng rng(11);
    for (int i = 0; i < 8000; ++i) {
        // Strided walk over 256 pages mapped 1:1 (vpn v -> ppn v).
        const Vpn vpn = (Vpn(i) * 3 + rng.below(4)) % 256;
        if (!classic.lookup(0, vpn, Tick(i)).has_value())
            classic.insert(0, vpn, xlate(vpn), Tick(i));
        if (!reach.lookup(0, vpn, Tick(i)).has_value())
            reach.insert(0, vpn, xlate(vpn), Tick(i));
    }
    EXPECT_EQ(reach.accesses(), classic.accesses());
    EXPECT_GE(reach.hits(), classic.hits());
}

TEST(TlbFillPolicy, BypassesSequentialStreamAndCountsIt)
{
    TlbParams p{32, 0, false, false};
    p.fill_policy = kTlbFillBypassDead;
    Tlb tlb(p);
    // A strictly sequential fill stream: the first fill installs, every
    // next-line successor is predicted dead on arrival and bypassed.
    for (Vpn v = 100; v < 108; ++v)
        tlb.insert(0, v, xlate(v), Tick(v));
    EXPECT_EQ(snapshotOf(tlb).get("fill_bypasses"), 7u);
    EXPECT_EQ(tlb.fills(), 1u);
    EXPECT_TRUE(tlb.present(0, 100));
    EXPECT_FALSE(tlb.present(0, 101));
    // A non-sequential fill breaks the stream and installs normally.
    tlb.insert(0, 300, xlate(300), 200);
    EXPECT_TRUE(tlb.present(0, 300));
    EXPECT_EQ(snapshotOf(tlb).get("fill_bypasses"), 7u);
}

TEST(TlbEvictHook, FiresOnCapacityEvictionOnly)
{
    Tlb tlb(TlbParams{2, 0, false, false});
    struct Evicted
    {
        Asid asid;
        Vpn vpn;
        Ppn ppn;
    };
    std::vector<Evicted> evicted;
    tlb.setEvictHook([&](Asid a, Vpn v, Ppn p2, Perms) {
        evicted.push_back(Evicted{a, v, p2});
    });
    tlb.insert(3, 1, xlate(10), 0);
    tlb.insert(3, 2, xlate(20), 1);
    EXPECT_TRUE(evicted.empty());
    tlb.insert(3, 5, xlate(50), 2); // capacity-evicts LRU (vpn 1)
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].asid, 3u);
    EXPECT_EQ(evicted[0].vpn, 1u);
    EXPECT_EQ(evicted[0].ppn, 10u);
    // Shootdowns and ASID flushes must NOT fire the hook.
    tlb.invalidatePage(3, 2);
    tlb.invalidateAsid(3);
    EXPECT_EQ(evicted.size(), 1u);
}

/** Property sweep over geometries: capacity and LRU order hold. */
class TlbGeometry : public ::testing::TestWithParam<
                        std::tuple<unsigned, unsigned>>
{
};

TEST_P(TlbGeometry, NeverExceedsCapacityAndAlwaysHoldsMru)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(TlbParams{entries, assoc, false, false});
    Rng rng(entries * 131 + assoc);
    Vpn last = 0;
    for (int i = 0; i < 2000; ++i) {
        const Vpn vpn = rng.below(512);
        tlb.insert(0, vpn, xlate(vpn), Tick(i));
        last = vpn;
        // The most recently inserted entry must be present.
        EXPECT_TRUE(tlb.present(0, last));
    }
    // Count resident entries: at most `entries`.
    unsigned resident = 0;
    for (Vpn v = 0; v < 512; ++v)
        resident += tlb.present(0, v) ? 1 : 0;
    EXPECT_LE(resident, entries);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Values(std::make_tuple(32u, 0u), std::make_tuple(32u, 4u),
                      std::make_tuple(64u, 8u), std::make_tuple(128u, 0u),
                      std::make_tuple(16u, 2u),
                      std::make_tuple(512u, 8u)));

// ---------------------------------------------------------------------
// tryMerge boundary audit: the reach ladder's top rung and the
// ASID/perm fusion guards
// ---------------------------------------------------------------------

TEST(TlbReach, MergeStopsExactlyAtMaxReach)
{
    TlbParams p{32, 0, false, false, true, kMaxReachLog2};
    p.merge_on_insert = true;
    Tlb tlb(p);
    // 1024 contiguous pages with contiguous frames: enough raw
    // material for a reach-10 entry if the ladder overran the cap.
    // 1024 one-page entries collapsing to two reach-9 entries is
    // exactly 1022 merges.
    for (Vpn v = 0; v < 1024; ++v)
        tlb.insert(0, v, xlate(4096 + v), Tick(v));
    EXPECT_EQ(snapshotOf(tlb).get("merges"), 1022u);

    // Two reach-9 entries remain.  They are aligned buddies with
    // physically contiguous frames — the only thing keeping them
    // apart is the kMaxReachLog2 cap, so a reach above 9 here means
    // the ladder (and class_count_[] indexing) overran.
    const auto lo = tlb.lookup(0, 0, 2000);
    ASSERT_TRUE(lo.has_value());
    EXPECT_EQ(lo->reach, kMaxReachLog2);
    EXPECT_EQ(lo->base_vpn, 0u);
    const auto hi = tlb.lookup(0, 1023, 2001);
    ASSERT_TRUE(hi.has_value());
    EXPECT_EQ(hi->reach, kMaxReachLog2);
    EXPECT_EQ(hi->base_vpn, 512u);
    EXPECT_EQ(hi->ppn, 4096u + 1023u);
}

TEST(TlbReach, MaxReachParamIsClampedToTheLadderTop)
{
    // A config asking for more reach than the ladder supports must
    // behave exactly like kMaxReachLog2, not index past the per-class
    // bookkeeping.
    TlbParams p{32, 0, false, false, true, /*max_reach=*/99};
    p.merge_on_insert = true;
    Tlb tlb(p);
    for (Vpn v = 0; v < 1024; ++v)
        tlb.insert(0, v, xlate(4096 + v), Tick(v));
    EXPECT_EQ(snapshotOf(tlb).get("merges"), 1022u);
    const auto hit = tlb.lookup(0, 512, 2000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->reach, kMaxReachLog2);
}

TEST(TlbReach, BuddyMergeNeverFusesDifferentAsids)
{
    TlbParams p{32, 0, false, false, true, kMaxReachLog2};
    p.merge_on_insert = true;
    Tlb tlb(p);
    // Buddy pages, contiguous frames — but different address spaces.
    tlb.insert(1, 0, xlate(100), 0);
    tlb.insert(2, 1, xlate(101), 1);
    EXPECT_EQ(snapshotOf(tlb).get("merges"), 0u);
    EXPECT_EQ(tlb.lookup(1, 0, 2)->reach, 0u);
    EXPECT_EQ(tlb.lookup(2, 1, 3)->reach, 0u);

    // Completing ASID 1's own buddy pair merges it — and must leave
    // ASID 2's overlapping-by-VPN entry untouched.
    tlb.insert(1, 1, xlate(101), 4);
    EXPECT_EQ(snapshotOf(tlb).get("merges"), 1u);
    EXPECT_EQ(tlb.lookup(1, 1, 5)->reach, 1u);
    EXPECT_EQ(tlb.lookup(1, 1, 6)->base_vpn, 0u);
    EXPECT_EQ(tlb.lookup(2, 1, 7)->reach, 0u);
    EXPECT_EQ(tlb.lookup(2, 1, 8)->ppn, 101u);
}

TEST(TlbReach, BuddyMergeNeverFusesDifferentPermsHigherUp)
{
    // Permission mismatches must stop the ladder at every rung, not
    // just rung 0: two resident reach-1 blocks whose frames line up
    // stay separate when their perms differ.
    TlbParams p{32, 0, false, false, true, kMaxReachLog2};
    p.merge_on_insert = true;
    Tlb tlb(p);
    tlb.insert(0, 0, xlate(100, kPermRead | kPermWrite), 0);
    tlb.insert(0, 1, xlate(101, kPermRead | kPermWrite), 1);
    tlb.insert(0, 2, xlate(102, kPermRead), 2);
    tlb.insert(0, 3, xlate(103, kPermRead), 3);
    // One merge per buddy pair, nothing above.
    EXPECT_EQ(snapshotOf(tlb).get("merges"), 2u);
    const auto lo = tlb.lookup(0, 0, 10);
    ASSERT_TRUE(lo.has_value());
    EXPECT_EQ(lo->reach, 1u);
    EXPECT_EQ(lo->perms, kPermRead | kPermWrite);
    const auto hi = tlb.lookup(0, 2, 11);
    ASSERT_TRUE(hi.has_value());
    EXPECT_EQ(hi->reach, 1u);
    EXPECT_EQ(hi->perms, kPermRead);
}

} // namespace
} // namespace gvc
