/**
 * @file
 * Tests for the extension features: dynamic synonym remapping (§4.3),
 * the banked shared TLB (§3.2 comparison), the CPU coherence agent,
 * and the energy estimator.
 */

#include <gtest/gtest.h>

#include "core/synonym_remap.hh"
#include "core/virtual_hierarchy.hh"
#include "cpu/coherence_agent.hh"
#include "harness/energy.hh"

namespace gvc
{
namespace
{

// ---------------------------------------------------------------
// SynonymRemapTable unit tests
// ---------------------------------------------------------------

TEST(SynonymRemap, DisabledTableDoesNothing)
{
    SynonymRemapTable t(0);
    EXPECT_FALSE(t.enabled());
    t.insert(0, 1, RemapTarget{0, 2});
    EXPECT_FALSE(t.lookup(0, 1).has_value());
}

TEST(SynonymRemap, InsertLookupDrop)
{
    SynonymRemapTable t(64);
    t.insert(1, 100, RemapTarget{2, 200});
    const auto hit = t.lookup(1, 100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->leading_asid, 2u);
    EXPECT_EQ(hit->leading_vpn, 200u);
    EXPECT_FALSE(t.lookup(1, 101).has_value());

    t.dropLeading(2, 200);
    EXPECT_FALSE(t.lookup(1, 100).has_value());
    EXPECT_EQ(t.drops(), 1u);
}

TEST(SynonymRemap, DropSourceRemovesOnlyThatMapping)
{
    SynonymRemapTable t(64);
    t.insert(0, 10, RemapTarget{0, 99});
    t.insert(0, 11, RemapTarget{0, 99});
    t.dropSource(0, 10);
    EXPECT_FALSE(t.lookup(0, 10).has_value());
    EXPECT_TRUE(t.lookup(0, 11).has_value());
}

TEST(SynonymRemap, CapacityIsBounded)
{
    SynonymRemapTable t(16, 4);
    for (Vpn v = 0; v < 200; ++v)
        t.insert(0, v, RemapTarget{0, v + 1000});
    EXPECT_LE(t.size(), 16u);
}

// ---------------------------------------------------------------
// Remapping integrated in the hierarchy
// ---------------------------------------------------------------

class RemapHierarchyTest : public ::testing::Test
{
  protected:
    RemapHierarchyTest()
        : pm_(std::uint64_t{1} << 30), vm_(pm_), dram_(ctx_, {})
    {
        cfg_.gpu.num_cus = 2;
        cfg_.synonym_remap_entries = 128;
        vc_ = std::make_unique<VirtualCacheSystem>(ctx_, cfg_, vm_,
                                                   dram_);
        asid_ = vm_.createProcess();
        base_ = vm_.mmapAnon(asid_, 8 * kPageSize, kPermRead);
        alias_ = vm_.alias(asid_, asid_, base_, 8 * kPageSize,
                           kPermRead);
    }

    void
    access(Vaddr va)
    {
        bool done = false;
        vc_->access(0, asid_, lineAlign(va), false, [&] { done = true; });
        ctx_.eq.run();
        ASSERT_TRUE(done);
    }

    SimContext ctx_;
    PhysMem pm_;
    Vm vm_;
    Dram dram_;
    SocConfig cfg_;
    std::unique_ptr<VirtualCacheSystem> vc_;
    Asid asid_ = 0;
    Vaddr base_ = 0;
    Vaddr alias_ = 0;
};

TEST_F(RemapHierarchyTest, SecondSynonymAccessIsRewrittenUpFront)
{
    access(base_);  // leading
    access(alias_); // synonym: replayed once, remapping cached
    EXPECT_EQ(vc_->synonymReplays(), 1u);

    // Subsequent accesses through the alias hit the L1 directly.
    const auto iommu_before = vc_->iommu()->accesses();
    access(alias_);
    access(alias_ + kLineSize); // same page, L2 path under leading name
    EXPECT_EQ(vc_->synonymReplays(), 1u); // no further replays
    EXPECT_GE(vc_->remapTable().hits(), 2u);
    // The extra line was cached under the leading name.
    EXPECT_TRUE(vc_->l2().present(asid_, base_ + kLineSize));
    EXPECT_FALSE(vc_->l2().present(asid_, alias_ + kLineSize));
    (void)iommu_before;
}

TEST_F(RemapHierarchyTest, RemapDroppedWhenLeadingPagePurged)
{
    access(base_);
    access(alias_);
    ASSERT_GT(vc_->remapTable().size(), 0u);
    vm_.protect(asid_, base_, kPageSize, kPermNone); // purge leading
    EXPECT_FALSE(
        vc_->remapTable().lookup(asid_, pageOf(alias_)).has_value());
}

TEST_F(RemapHierarchyTest, RemapDroppedWhenSourcePageShotDown)
{
    access(base_);
    access(alias_);
    vm_.protect(asid_, alias_, kPageSize, kPermNone);
    EXPECT_FALSE(
        vc_->remapTable().lookup(asid_, pageOf(alias_)).has_value());
}

// ---------------------------------------------------------------
// Banked shared TLB
// ---------------------------------------------------------------

TEST(BankedIommu, DistinctBanksServeInParallel)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    const Asid asid = vm.createProcess();
    const Vaddr base = vm.mmapAnon(asid, 1024 * kPageSize);

    auto run = [&](unsigned banks) {
        SimContext c;
        Dram d(c, {});
        IommuParams p;
        p.banks = banks;
        p.bank_select_shift = 0; // consecutive pages spread over banks
        Iommu iommu(c, vm, d, p);
        // Warm the TLB.
        for (int i = 0; i < 16; ++i)
            iommu.translate(asid, pageOf(base) + i,
                            [](const IommuResponse &) {});
        c.eq.run();
        // Burst of hits spread over pages.
        for (int rep = 0; rep < 8; ++rep)
            for (int i = 0; i < 16; ++i)
                iommu.translate(asid, pageOf(base) + i,
                                [](const IommuResponse &) {});
        c.eq.run();
        return iommu.serializationDelay();
    };

    EXPECT_LT(run(4), run(1));
}

TEST(BankedIommu, SameBankStillConflicts)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    const Asid asid = vm.createProcess();
    const Vaddr base = vm.mmapAnon(asid, 64 * kPageSize);

    IommuParams p;
    p.banks = 8;
    p.bank_select_shift = 10; // high-order select: all pages -> bank 0
    Iommu iommu(ctx, vm, dram, p);
    for (int i = 0; i < 8; ++i)
        iommu.translate(asid, pageOf(base) + i,
                        [](const IommuResponse &) {});
    ctx.eq.run();
    for (int i = 0; i < 8; ++i)
        iommu.translate(asid, pageOf(base) + i,
                        [](const IommuResponse &) {});
    ctx.eq.run();
    EXPECT_GT(iommu.bankConflicts(), 0u);
}

// ---------------------------------------------------------------
// CPU coherence agent
// ---------------------------------------------------------------

TEST(CoherenceAgent, ProbesOnlyOnStoresAndCountsFilterOutcomes)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    const Asid asid = vm.createProcess();
    const Vaddr buf = vm.mmapAnon(asid, 64 * kPageSize);

    CoherenceAgentParams p;
    p.period = 10;
    p.store_fraction = 1.0; // every access probes
    CpuCoherenceAgent agent(ctx, vm, p);
    unsigned probes_seen = 0;
    agent.setProbeSink([&](Paddr, bool) {
        ++probes_seen;
        return AgentProbeResult{/*filtered=*/true, false};
    });
    bool done = false;
    agent.start(asid, buf, 64 * kPageSize, 100, [&] { done = true; });
    ctx.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(agent.accessesIssued(), 100u);
    EXPECT_EQ(probes_seen, 100u);
    EXPECT_EQ(agent.probesFiltered(), 100u);
}

TEST(CoherenceAgent, InvalidatesGpuResidentLines)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    SocConfig cfg;
    cfg.gpu.num_cus = 2;
    VirtualCacheSystem vc(ctx, cfg, vm, dram);
    const Asid asid = vm.createProcess();
    const Vaddr buf = vm.mmapAnon(asid, 4 * kPageSize);

    // GPU caches the first line of the buffer.
    bool gdone = false;
    vc.access(0, asid, buf, false, [&] { gdone = true; });
    ctx.eq.run();
    ASSERT_TRUE(gdone);

    CoherenceAgentParams p;
    p.period = 5;
    p.store_fraction = 1.0;
    CpuCoherenceAgent agent(ctx, vm, p);
    agent.setProbeSink([&](Paddr pa, bool inv) {
        const ProbeResult r = vc.coherenceProbe(pa, inv);
        return AgentProbeResult{r.filtered, r.invalidated};
    });
    agent.start(asid, buf, 4 * kPageSize, 200);
    ctx.eq.run();
    EXPECT_GT(agent.gpuLinesInvalidated(), 0u);
    EXPECT_GT(agent.probesFiltered(), 0u);
    EXPECT_FALSE(vc.l2().present(asid, buf));
}

// ---------------------------------------------------------------
// Energy estimator
// ---------------------------------------------------------------

TEST(Energy, ScalesWithEventCounts)
{
    RunResult r;
    r.tlb_accesses = 1000;
    r.iommu_accesses = 100;
    r.fbt_lookups = 50;
    r.page_walks = 10;
    r.l1_accesses = 2000;
    r.l2_accesses = 500;
    r.dram_bytes = 128 * 100;

    EnergyParams p;
    const auto e = estimateEnergy(r, p);
    EXPECT_NEAR(e.translation_nj,
                (1000 * p.percu_tlb_lookup_pj +
                 100 * p.iommu_tlb_lookup_pj + 50 * p.fbt_lookup_pj +
                 10 * p.page_walk_pj) /
                    1000.0,
                1e-9);
    EXPECT_GT(e.cache_nj, 0.0);
    EXPECT_GT(e.dram_nj, 0.0);
    EXPECT_NEAR(e.total(), e.translation_nj + e.cache_nj + e.dram_nj,
                1e-12);
}

TEST(Energy, VcReducesTranslationEnergy)
{
    RunConfig cfg;
    cfg.workload.scale = 0.15;
    cfg.design = MmuDesign::kBaseline16K;
    const auto base = estimateEnergy(runWorkload("pagerank", cfg));
    cfg.design = MmuDesign::kVcOpt;
    const auto vc = estimateEnergy(runWorkload("pagerank", cfg));
    EXPECT_LT(vc.translation_nj, base.translation_nj);
}

} // namespace
} // namespace gvc
