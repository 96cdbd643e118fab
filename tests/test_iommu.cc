/**
 * @file
 * Unit tests for the IOMMU front end: rate-limited port, shared TLB,
 * second-level (FBT) hook, fault handling, shootdowns.
 */

#include <gtest/gtest.h>

#include "iommu_client.hh"

namespace gvc
{
namespace
{

using test::IommuClient;

class IommuTest : public ::testing::Test
{
  protected:
    IommuTest() : pm_(std::uint64_t{1} << 30), vm_(pm_), dram_(ctx_, {})
    {
        asid_ = vm_.createProcess();
        base_ = vm_.mmapAnon(asid_, 256 * kPageSize);
    }

    SimContext ctx_;
    PhysMem pm_;
    Vm vm_;
    Dram dram_;
    Asid asid_ = 0;
    Vaddr base_ = 0;
};

TEST_F(IommuTest, TranslateMissWalksThenHits)
{
    IommuClient io(ctx_, vm_, dram_);
    Iommu &iommu = io.iommu();
    const IommuResponse r1 = io.translateNow(asid_, pageOf(base_));
    const Tick t1 = io.answers.back().at;
    const Tick asked = ctx_.now();
    const IommuResponse r2 = io.translateNow(asid_, pageOf(base_));
    const Tick t2 = io.answers.back().at - asked;
    EXPECT_FALSE(r1.fault);
    EXPECT_EQ(r1.ppn, vm_.translate(asid_, base_)->ppn);
    EXPECT_EQ(r2.ppn, r1.ppn);
    // Second lookup is a shared-TLB hit: far faster than the walk.
    EXPECT_GT(t1, t2);
    EXPECT_EQ(iommu.walks(), 1u);
    EXPECT_EQ(iommu.tlb().hits(), 1u);
}

TEST_F(IommuTest, PortSerializesAtOneAccessPerCycle)
{
    IommuParams p;
    p.accesses_per_cycle = 1.0;
    IommuClient io(ctx_, vm_, dram_, p);
    // Warm the TLB for one page.
    io.translateNow(asid_, pageOf(base_));

    // 10 simultaneous hits serialize at 1/cycle.
    io.answers.clear();
    const Tick t0 = ctx_.now();
    for (int i = 0; i < 10; ++i)
        io.translate(asid_, pageOf(base_));
    ctx_.eq.run();
    ASSERT_EQ(io.answers.size(), 10u);
    EXPECT_GE(io.answers.back().at - t0, 9u);
    EXPECT_GT(snapshotOf(io.iommu()).get("serialization_cycles"), 0u);
}

TEST_F(IommuTest, HigherBandwidthReducesSerialization)
{
    std::uint64_t ser_bw1 = 0;
    for (const double bw : {1.0, 4.0}) {
        SimContext ctx;
        Dram dram(ctx, {});
        IommuParams p;
        p.accesses_per_cycle = bw;
        IommuClient io(ctx, vm_, dram, p);
        Iommu &iommu = io.iommu();
        for (int i = 0; i < 64; ++i)
            io.translate(asid_, pageOf(base_));
        ctx.eq.run();
        if (bw == 1.0)
            ser_bw1 = snapshotOf(iommu).get("serialization_cycles");
        else
            EXPECT_LT(snapshotOf(iommu).get("serialization_cycles"), ser_bw1);
    }
}

TEST_F(IommuTest, UnlimitedBandwidthHasNoSerialization)
{
    IommuParams p;
    p.unlimited_bw = true;
    IommuClient io(ctx_, vm_, dram_, p);
    for (int i = 0; i < 50; ++i)
        io.translate(asid_, pageOf(base_) + i);
    ctx_.eq.run();
    EXPECT_EQ(snapshotOf(io.iommu()).get("serialization_cycles"), 0u);
}

TEST_F(IommuTest, SecondLevelHitSkipsWalk)
{
    IommuClient io(ctx_, vm_, dram_);
    Iommu &iommu = io.iommu();
    const Ppn ppn = vm_.translate(asid_, base_)->ppn;
    // An L2 miss on the page made it leading: the FT maps it.
    Fbt fbt;
    fbt.onCacheMiss(asid_, pageOf(base_), ppn, kPermRead | kPermWrite, 0,
                    false);
    iommu.setSecondLevel(&fbt);
    const IommuResponse r = io.translateNow(asid_, pageOf(base_));
    EXPECT_EQ(r.ppn, ppn);
    EXPECT_EQ(iommu.walks(), 0u);
    EXPECT_EQ(snapshotOf(iommu).get("second_level_hits"), 1u);
}

TEST_F(IommuTest, SecondLevelMissStillWalks)
{
    IommuClient io(ctx_, vm_, dram_);
    Iommu &iommu = io.iommu();
    Fbt fbt; // no entry for the page
    iommu.setSecondLevel(&fbt);
    const IommuResponse r = io.translateNow(asid_, pageOf(base_));
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(iommu.walks(), 1u);
    EXPECT_EQ(snapshotOf(iommu).get("second_level_lookups"), 1u);
    EXPECT_EQ(snapshotOf(iommu).get("second_level_hits"), 0u);
}

TEST_F(IommuTest, UnmappedFaultsWithoutFixer)
{
    IommuClient io(ctx_, vm_, dram_);
    const IommuResponse r = io.translateNow(asid_, 0xBAD000);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(io.iommu().faults(), 1u);
}

TEST_F(IommuTest, FaultFixerRepairsAndRetries)
{
    IommuClient io(ctx_, vm_, dram_);
    io.iommu().setFaultFixer([&](Asid asid, Vpn vpn) {
        // Demand-map the page, CPU style.
        vm_.pageTable(asid).map(vpn, pm_.allocFrame(),
                                kPermRead | kPermWrite);
        return true;
    });
    const Vpn vpn = 0xCAFE;
    const IommuResponse r = io.translateNow(asid_, vpn);
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(r.ppn, vm_.translate(asid_, pageBase(vpn))->ppn);
}

TEST_F(IommuTest, ShootdownInvalidatesSharedTlb)
{
    IommuClient io(ctx_, vm_, dram_);
    Iommu &iommu = io.iommu();
    io.translateNow(asid_, pageOf(base_));
    EXPECT_EQ(iommu.tlb().fills(), 1u);
    vm_.protect(asid_, base_, kPageSize, kPermRead);
    EXPECT_FALSE(iommu.tlb().present(asid_, pageOf(base_)));
}

TEST_F(IommuTest, SamplerCountsAccesses)
{
    IommuClient io(ctx_, vm_, dram_);
    Iommu &iommu = io.iommu();
    for (int i = 0; i < 5; ++i)
        io.translate(asid_, pageOf(base_) + i);
    ctx_.eq.run();
    iommu.sampler().finish(ctx_.now());
    EXPECT_EQ(iommu.accesses(), 5u);
    EXPECT_GT(iommu.sampler().meanPerCycle(), 0.0);
}

} // namespace
} // namespace gvc
