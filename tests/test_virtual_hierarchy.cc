/**
 * @file
 * Integration tests for the proposed virtual cache hierarchy: hit/miss
 * flows, translation filtering, synonym replay, read-write synonym
 * faults, shootdown purging, FBT inclusion, and coherence probes.
 */

#include <gtest/gtest.h>

#include "core/virtual_hierarchy.hh"

namespace gvc
{
namespace
{

class VcTest : public ::testing::Test
{
  protected:
    VcTest() : pm_(std::uint64_t{1} << 30), vm_(pm_), dram_(ctx_, {})
    {
        cfg_.gpu.num_cus = 4;
        vc_ = std::make_unique<VirtualCacheSystem>(ctx_, cfg_, vm_,
                                                   dram_);
        asid_ = vm_.createProcess();
        base_ = vm_.mmapAnon(asid_, 512 * kPageSize);
    }

    /** Blocking access helper: returns completion tick. */
    Tick
    access(Vaddr va, bool store = false, unsigned cu = 0,
           std::optional<Asid> asid = std::nullopt)
    {
        bool done = false;
        Tick at = 0;
        vc_->access(cu, asid.value_or(asid_), lineAlign(va), store,
                    [&] {
                        done = true;
                        at = ctx_.now();
                    });
        ctx_.eq.run();
        EXPECT_TRUE(done);
        return at;
    }

    SimContext ctx_;
    PhysMem pm_;
    Vm vm_;
    Dram dram_;
    SocConfig cfg_;
    std::unique_ptr<VirtualCacheSystem> vc_;
    Asid asid_ = 0;
    Vaddr base_ = 0;
};

TEST_F(VcTest, ColdMissFillsBothLevelsAndFbt)
{
    access(base_);
    EXPECT_TRUE(vc_->l2().present(asid_, base_));
    EXPECT_TRUE(vc_->l1(0).present(asid_, base_));
    EXPECT_TRUE(vc_->fbt().hasLeading(asid_, pageOf(base_)));
    EXPECT_EQ(vc_->iommu()->accesses(), 1u);
}

TEST_F(VcTest, L1HitNeedsNoTranslation)
{
    access(base_);
    const auto iommu_before = vc_->iommu()->accesses();
    const Tick t0 = ctx_.now();
    const Tick t1 = access(base_);
    EXPECT_EQ(vc_->iommu()->accesses(), iommu_before);
    EXPECT_EQ(t1 - t0, cfg_.l1_latency);
}

TEST_F(VcTest, L2HitFiltersTranslationForOtherCus)
{
    access(base_, false, /*cu=*/0);
    const auto iommu_before = vc_->iommu()->accesses();
    access(base_, false, /*cu=*/1);
    // CU 1 missed its L1 but hit the shared virtual L2: filtered.
    EXPECT_EQ(vc_->iommu()->accesses(), iommu_before);
    EXPECT_TRUE(vc_->l1(1).present(asid_, base_));
}

TEST_F(VcTest, TranslationsAreCoalescedPerPage)
{
    // 8 concurrent line misses within a page: one IOMMU access.
    unsigned done = 0;
    for (int i = 0; i < 8; ++i)
        vc_->access(0, asid_, base_ + i * kLineSize, false,
                    [&] { ++done; });
    ctx_.eq.run();
    EXPECT_EQ(done, 8u);
    EXPECT_EQ(vc_->iommu()->accesses(), 1u);
    EXPECT_EQ(snapshotOf(*vc_).get("vc.translation_merges"), 7u);
}

TEST_F(VcTest, StoresWriteThroughAndDirtyL2)
{
    access(base_, /*store=*/true);
    EXPECT_FALSE(vc_->l1(0).present(asid_, base_)); // no write allocate
    EXPECT_TRUE(vc_->l2().present(asid_, base_));
    const auto info = vc_->l2().invalidateLine(asid_, base_);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->dirty);
}

TEST_F(VcTest, ReadOnlySynonymReplaysWithLeadingVa)
{
    const Vaddr alias = vm_.alias(asid_, asid_, base_, kPageSize,
                                  kPermRead);
    // Make the original mapping read-only as well: read-only synonyms
    // are fully supported.
    vm_.protect(asid_, base_, kPageSize, kPermRead);
    access(base_); // (re)establish leading VA after the shootdown
    access(alias); // synonym: replayed with the leading VA
    EXPECT_EQ(vc_->synonymReplays(), 1u);
    EXPECT_EQ(vc_->rwFaults(), 0u);
    // Data stays cached under the leading name only.
    EXPECT_TRUE(vc_->l2().present(asid_, base_));
    EXPECT_FALSE(vc_->l2().present(asid_, alias));
}

TEST_F(VcTest, SynonymReplayMissFetchesUnderLeadingVa)
{
    const Vaddr alias = vm_.alias(asid_, asid_, base_, kPageSize,
                                  kPermRead);
    vm_.protect(asid_, base_, kPageSize, kPermRead);
    access(base_); // leading established, line 0 cached
    // A different line of the page via the synonym: replay misses and
    // fetches under the leading VA.
    access(alias + 4 * kLineSize);
    EXPECT_TRUE(vc_->l2().present(asid_, base_ + 4 * kLineSize));
    EXPECT_FALSE(vc_->l2().present(asid_, alias + 4 * kLineSize));
}

TEST_F(VcTest, ReadWriteSynonymFaults)
{
    const Vaddr alias = vm_.alias(asid_, asid_, base_, kPageSize);
    access(base_, /*store=*/true); // page written under leading VA
    access(alias);                 // synonymous read: conservative fault
    EXPECT_EQ(vc_->rwFaults(), 1u);
}

TEST_F(VcTest, ShootdownPurgesCachesAndFbt)
{
    access(base_);
    access(base_ + kLineSize);
    EXPECT_TRUE(vc_->fbt().hasLeading(asid_, pageOf(base_)));
    vm_.protect(asid_, base_, kPageSize, kPermRead);
    EXPECT_FALSE(vc_->fbt().hasLeading(asid_, pageOf(base_)));
    EXPECT_FALSE(vc_->l2().present(asid_, base_));
    EXPECT_FALSE(vc_->l2().present(asid_, base_ + kLineSize));
    // The L1 invalidation filter saw the page: the L1 was flushed.
    EXPECT_FALSE(vc_->l1(0).present(asid_, base_));
    EXPECT_GE(vc_->l1Flushes(), 1u);
}

TEST_F(VcTest, ShootdownOfUncachedPageTouchesNothing)
{
    access(base_);
    const Vaddr other = base_ + 100 * kPageSize;
    vm_.protect(asid_, other, kPageSize, kPermRead);
    EXPECT_TRUE(vc_->l2().present(asid_, base_));
    EXPECT_EQ(vc_->l1Flushes(), 0u);
}

TEST_F(VcTest, PermissionViolationIsCountedNotCached)
{
    const Vaddr ro = vm_.mmapAnon(asid_, kPageSize, kPermRead);
    access(ro, /*store=*/true);
    EXPECT_EQ(vc_->protectionFaults(), 1u);
    EXPECT_FALSE(vc_->l2().present(asid_, ro));
}

TEST_F(VcTest, CoherenceProbeFilteredWhenNotCached)
{
    const auto t = vm_.translate(asid_, base_);
    const auto r = vc_->coherenceProbe(pageBase(t->ppn), true);
    EXPECT_TRUE(r.filtered);
}

TEST_F(VcTest, CoherenceProbeInvalidatesCachedLine)
{
    access(base_, /*store=*/true);
    const auto t = vm_.translate(asid_, base_);
    const auto r = vc_->coherenceProbe(pageBase(t->ppn), true);
    ctx_.eq.run();
    EXPECT_FALSE(r.filtered);
    EXPECT_TRUE(r.line_present);
    EXPECT_TRUE(r.invalidated);
    // The probe recovered dirty data (the directory writes it back).
    EXPECT_TRUE(r.was_dirty);
    EXPECT_FALSE(vc_->l2().present(asid_, base_));
}

TEST_F(VcTest, FbtIsInclusiveOfL2)
{
    // Property: every line resident in the L2 belongs to a page with a
    // live FBT entry whose bit-vector covers the line.
    for (int i = 0; i < 200; ++i)
        access(base_ + std::uint64_t(i) * 3 * kLineSize, i % 4 == 0,
               i % 4);
    vc_->l2().forEachLine([&](const CacheLineInfo &info) {
        ASSERT_TRUE(
            vc_->fbt().hasLeading(info.asid, pageOf(info.line_addr)));
        const auto t = vm_.translate(info.asid, info.line_addr);
        ASSERT_TRUE(t.has_value());
        const auto r = vc_->fbt().reverseLookup(
            t->ppn, lineInPage(info.line_addr));
        EXPECT_TRUE(r.present);
        EXPECT_TRUE(r.line_cached);
    });
}

TEST_F(VcTest, HomonymsStayDistinct)
{
    const Asid other = vm_.createProcess();
    const Vaddr other_va = vm_.mmapAnon(other, kPageSize);
    // Same numeric VA in two address spaces maps to different frames.
    ASSERT_EQ(other_va, Vaddr{0x1000'0000});
    access(base_, false, 0, asid_);
    access(other_va, false, 0, other);
    EXPECT_TRUE(vc_->l2().present(asid_, base_));
    EXPECT_TRUE(vc_->l2().present(other, other_va));
    EXPECT_EQ(vc_->synonymReplays(), 0u);
    EXPECT_EQ(vc_->rwFaults(), 0u);
}

TEST_F(VcTest, LargePagesWithSubpageSplit)
{
    // Default mode (§4.3 optimization): 2 MB pages get 4 KB subpage
    // FBT entries on demand.
    const Vaddr big = vm_.mmapAnonLarge(asid_, kLargePageSize);
    access(big);
    access(big + 5 * kPageSize);
    EXPECT_TRUE(vc_->l2().present(asid_, big));
    EXPECT_TRUE(vc_->fbt().hasLeading(asid_, pageOf(big)));
    EXPECT_TRUE(vc_->fbt().hasLeading(asid_, pageOf(big) + 5));
    // Sparsely-touched large page: only the touched subpages allocate.
    EXPECT_FALSE(vc_->fbt().hasLeading(asid_, pageOf(big) + 6));
}

TEST(VcLargePage, CounterModeCachesAndPurges)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{4} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    SocConfig cfg;
    cfg.gpu.num_cus = 2;
    cfg.fbt.split_large_pages = false; // counter-mode entries
    VirtualCacheSystem vc(ctx, cfg, vm, dram);
    const Asid asid = vm.createProcess();
    const Vaddr big = vm.mmapAnonLarge(asid, kLargePageSize);

    auto access = [&](Vaddr va, bool store) {
        bool done = false;
        vc.access(0, asid, lineAlign(va), store, [&] { done = true; });
        ctx.eq.run();
        EXPECT_TRUE(done);
    };

    access(big, false);
    access(big + 100 * kPageSize, false);
    EXPECT_TRUE(vc.l2().present(asid, big));
    EXPECT_TRUE(vc.l2().present(asid, big + 100 * kPageSize));
    // One counter-mode entry covers the whole 2 MB page.
    EXPECT_EQ(vc.fbt().validEntries(), 1u);
    EXPECT_TRUE(vc.fbt().hasLeading(asid, pageOf(big) + 100));

    // L1 hits still need no translation.
    const auto before = vc.iommu()->accesses();
    access(big, false);
    EXPECT_EQ(vc.iommu()->accesses(), before);

    // Shootdown purges every cached line of the 2 MB page.
    vm.protect(asid, big, kLargePageSize, kPermRead);
    EXPECT_FALSE(vc.l2().present(asid, big));
    EXPECT_FALSE(vc.l2().present(asid, big + 100 * kPageSize));
    EXPECT_EQ(vc.fbt().validEntries(), 0u);
}

TEST_F(VcTest, FullAsidShootdownPurgesOnlyThatAsid)
{
    const Asid other = vm_.createProcess();
    const Vaddr other_va = vm_.mmapAnon(other, kPageSize);
    access(base_, false, 0, asid_);
    access(other_va, false, 0, other);
    vm_.shootdownAll(other);
    EXPECT_TRUE(vc_->fbt().hasLeading(asid_, pageOf(base_)));
    EXPECT_FALSE(vc_->fbt().hasLeading(other, pageOf(other_va)));
}

} // namespace
} // namespace gvc
