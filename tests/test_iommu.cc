/**
 * @file
 * Unit tests for the IOMMU front end: rate-limited port, shared TLB,
 * second-level (FBT) hook, fault handling, shootdowns.
 */

#include <gtest/gtest.h>

#include <vector>

#include "tlb/iommu.hh"

namespace gvc
{
namespace
{

class IommuTest : public ::testing::Test
{
  protected:
    IommuTest() : pm_(std::uint64_t{1} << 30), vm_(pm_), dram_(ctx_, {})
    {
        asid_ = vm_.createProcess();
        base_ = vm_.mmapAnon(asid_, 256 * kPageSize);
    }

    Iommu
    make(IommuParams p = {})
    {
        return Iommu(ctx_, vm_, dram_, p);
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
    Iommu iommu = make();
    IommuResponse r1, r2;
    Tick t1 = 0, t2 = 0;
    iommu.translate(asid_, pageOf(base_), [&](const IommuResponse &r) {
        r1 = r;
        t1 = ctx_.now();
        iommu.translate(asid_, pageOf(base_),
                        [&](const IommuResponse &r) {
                            r2 = r;
                            t2 = ctx_.now() - t1;
                        });
    });
    ctx_.eq.run();
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
    Iommu iommu = make(p);
    // Warm the TLB for one page.
    iommu.translate(asid_, pageOf(base_), [](const IommuResponse &) {});
    ctx_.eq.run();

    // 10 simultaneous hits serialize at 1/cycle.
    std::vector<Tick> times;
    const Tick t0 = ctx_.now();
    for (int i = 0; i < 10; ++i) {
        iommu.translate(asid_, pageOf(base_),
                        [&](const IommuResponse &) {
                            times.push_back(ctx_.now());
                        });
    }
    ctx_.eq.run();
    ASSERT_EQ(times.size(), 10u);
    EXPECT_GE(times.back() - t0, 9u);
    EXPECT_GT(snapshotOf(iommu).get("serialization_cycles"), 0u);
}

TEST_F(IommuTest, HigherBandwidthReducesSerialization)
{
    std::uint64_t ser_bw1 = 0;
    for (const double bw : {1.0, 4.0}) {
        SimContext ctx;
        Dram dram(ctx, {});
        IommuParams p;
        p.accesses_per_cycle = bw;
        Iommu iommu(ctx, vm_, dram, p);
        for (int i = 0; i < 64; ++i)
            iommu.translate(asid_, pageOf(base_),
                            [](const IommuResponse &) {});
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
    Iommu iommu = make(p);
    for (int i = 0; i < 50; ++i)
        iommu.translate(asid_, pageOf(base_) + i,
                        [](const IommuResponse &) {});
    ctx_.eq.run();
    EXPECT_EQ(snapshotOf(iommu).get("serialization_cycles"), 0u);
}

TEST_F(IommuTest, SecondLevelHitSkipsWalk)
{
    Iommu iommu = make();
    const Ppn ppn = vm_.translate(asid_, base_)->ppn;
    iommu.setSecondLevel([&](Asid, Vpn) {
        return std::optional<TlbLookup>(
            TlbLookup{ppn, kPermRead | kPermWrite, false});
    });
    IommuResponse r;
    iommu.translate(asid_, pageOf(base_),
                    [&](const IommuResponse &resp) { r = resp; });
    ctx_.eq.run();
    EXPECT_EQ(r.ppn, ppn);
    EXPECT_EQ(iommu.walks(), 0u);
    EXPECT_EQ(snapshotOf(iommu).get("second_level_hits"), 1u);
}

TEST_F(IommuTest, SecondLevelMissStillWalks)
{
    Iommu iommu = make();
    iommu.setSecondLevel(
        [](Asid, Vpn) { return std::optional<TlbLookup>(); });
    IommuResponse r;
    iommu.translate(asid_, pageOf(base_),
                    [&](const IommuResponse &resp) { r = resp; });
    ctx_.eq.run();
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(iommu.walks(), 1u);
}

TEST_F(IommuTest, UnmappedFaultsWithoutFixer)
{
    Iommu iommu = make();
    IommuResponse r;
    iommu.translate(asid_, 0xBAD000,
                    [&](const IommuResponse &resp) { r = resp; });
    ctx_.eq.run();
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(iommu.faults(), 1u);
}

TEST_F(IommuTest, FaultFixerRepairsAndRetries)
{
    Iommu iommu = make();
    iommu.setFaultFixer([&](Asid asid, Vpn vpn) {
        // Demand-map the page, CPU style.
        vm_.pageTable(asid).map(vpn, pm_.allocFrame(),
                                kPermRead | kPermWrite);
        return true;
    });
    IommuResponse r;
    const Vpn vpn = 0xCAFE;
    iommu.translate(asid_, vpn,
                    [&](const IommuResponse &resp) { r = resp; });
    ctx_.eq.run();
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(r.ppn, vm_.translate(asid_, pageBase(vpn))->ppn);
}

TEST_F(IommuTest, ShootdownInvalidatesSharedTlb)
{
    Iommu iommu = make();
    iommu.translate(asid_, pageOf(base_), [](const IommuResponse &) {});
    ctx_.eq.run();
    EXPECT_EQ(iommu.tlb().fills(), 1u);
    vm_.protect(asid_, base_, kPageSize, kPermRead);
    EXPECT_FALSE(iommu.tlb().present(asid_, pageOf(base_)));
}

TEST_F(IommuTest, SamplerCountsAccesses)
{
    Iommu iommu = make();
    for (int i = 0; i < 5; ++i)
        iommu.translate(asid_, pageOf(base_) + i,
                        [](const IommuResponse &) {});
    ctx_.eq.run();
    iommu.sampler().finish(ctx_.now());
    EXPECT_EQ(iommu.accesses(), 5u);
    EXPECT_GT(iommu.sampler().meanPerCycle(), 0.0);
}

} // namespace
} // namespace gvc
