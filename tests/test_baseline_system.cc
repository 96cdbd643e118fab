/**
 * @file
 * Integration tests for the baseline physical-cache MMU design and the
 * IDEAL MMU reference.
 */

#include <gtest/gtest.h>

#include "mmu/baseline_system.hh"
#include "mmu/ideal_system.hh"

namespace gvc
{
namespace
{

class BaselineTest : public ::testing::Test
{
  protected:
    BaselineTest()
        : pm_(std::uint64_t{1} << 30), vm_(pm_), dram_(ctx_, {})
    {
        cfg_.gpu.num_cus = 4;
        sys_ = std::make_unique<BaselineMmuSystem>(ctx_, cfg_, vm_,
                                                   dram_);
        asid_ = vm_.createProcess();
        base_ = vm_.mmapAnon(asid_, 256 * kPageSize);
    }

    Tick
    access(Vaddr va, bool store = false, unsigned cu = 0)
    {
        bool done = false;
        Tick at = 0;
        sys_->access(cu, asid_, lineAlign(va), store, [&] {
            done = true;
            at = ctx_.now();
        });
        ctx_.eq.run();
        EXPECT_TRUE(done);
        return at;
    }

    Tlb &tlb(unsigned cu) { return (*sys_->perCuTlbs())[cu]; }

    SimContext ctx_;
    PhysMem pm_;
    Vm vm_;
    Dram dram_;
    SocConfig cfg_;
    std::unique_ptr<BaselineMmuSystem> sys_;
    Asid asid_ = 0;
    Vaddr base_ = 0;
};

TEST_F(BaselineTest, TlbMissGoesToIommuThenFills)
{
    access(base_);
    EXPECT_EQ(sys_->perCuTlbs()->sum(&Tlb::misses), 1u);
    EXPECT_EQ(sys_->iommu()->accesses(), 1u);
    EXPECT_TRUE(tlb(0).present(asid_, pageOf(base_)));
    // Data landed in the physical caches.
    const auto pa = vm_.translate(asid_, base_)->ppn;
    EXPECT_TRUE(sys_->caches().l1(0).present(0, pageBase(pa)));
    EXPECT_TRUE(sys_->caches().l2().present(0, pageBase(pa)));
}

TEST_F(BaselineTest, TlbHitSkipsIommu)
{
    access(base_);
    const auto before = sys_->iommu()->accesses();
    access(base_ + kLineSize); // same page
    EXPECT_EQ(sys_->iommu()->accesses(), before);
    EXPECT_EQ(sys_->perCuTlbs()->sum(&Tlb::misses), 1u);
}

TEST_F(BaselineTest, PerCuTlbsAreSeparate)
{
    access(base_, false, 0);
    const auto before = sys_->iommu()->accesses();
    access(base_, false, 1); // different CU: its own TLB misses
    EXPECT_EQ(sys_->iommu()->accesses(), before + 1);
}

TEST_F(BaselineTest, EveryMissIsAnIommuAccessWhenUnmerged)
{
    // Concurrent misses to the same page each travel to the IOMMU
    // (the paper's accounting).
    unsigned done = 0;
    for (int i = 0; i < 4; ++i)
        sys_->access(0, asid_, base_ + i * kLineSize, false,
                     [&] { ++done; });
    ctx_.eq.run();
    EXPECT_EQ(done, 4u);
    EXPECT_EQ(sys_->iommu()->accesses(), 4u);
}

TEST_F(BaselineTest, MergedModeCoalescesConcurrentMisses)
{
    BaselineMmuSystem merged(ctx_, cfg_, vm_, dram_,
                             /*merge_tlb_misses=*/true);
    unsigned done = 0;
    for (int i = 0; i < 4; ++i)
        merged.access(0, asid_, base_ + i * kLineSize, false,
                      [&] { ++done; });
    ctx_.eq.run();
    EXPECT_EQ(done, 4u);
    EXPECT_EQ(merged.iommu()->accesses(), 1u);
}

TEST_F(BaselineTest, ClassificationBucketsAreConsistent)
{
    // Touch a page from CU0, then evict its TLB entry by touching many
    // other pages; re-access and check the miss classified as cache hit.
    access(base_);
    for (int i = 1; i <= 64; ++i)
        access(base_ + std::uint64_t(i) * kPageSize);
    EXPECT_FALSE(tlb(0).present(asid_, pageOf(base_)));
    const auto before = sys_->breakdown();
    access(base_);
    const auto after = sys_->breakdown();
    EXPECT_EQ(after.total(), before.total() + 1);
    // The line is still in the 2 MB L2 (64 pages of lines fit easily).
    EXPECT_EQ(after.miss_l1_hit + after.miss_l2_hit,
              before.miss_l1_hit + before.miss_l2_hit + 1);
}

TEST_F(BaselineTest, ShootdownDropsPerCuTlbEntries)
{
    access(base_, false, 0);
    access(base_, false, 1);
    vm_.protect(asid_, base_, kPageSize, kPermRead);
    EXPECT_FALSE(tlb(0).present(asid_, pageOf(base_)));
    EXPECT_FALSE(tlb(1).present(asid_, pageOf(base_)));
}

TEST_F(BaselineTest, ShootdownDropsVictimaStashedTranslation)
{
    cfg_.victima_stash = true;
    cfg_.percu_tlb_entries = 2;
    BaselineMmuSystem vic(ctx_, cfg_, vm_, dram_);
    const auto touch = [&](unsigned page) {
        bool done = false;
        vic.access(0, asid_, base_ + std::uint64_t(page) * kPageSize,
                   false, [&] { done = true; });
        ctx_.eq.run();
        EXPECT_TRUE(done);
    };
    // A 2-entry TLB: pages 2 and 3 evict pages 0 and 1 into the stash.
    for (unsigned page = 0; page < 4; ++page)
        touch(page);
    ASSERT_EQ(vic.victimaStashes(), 2u);

    // Control: page 1's stashed translation serves its next miss.
    std::uint64_t iommu_before = vic.iommu()->accesses();
    touch(1);
    EXPECT_EQ(vic.victimaHits(), 1u);
    EXPECT_EQ(vic.iommu()->accesses(), iommu_before);

    // A shootdown of page 0 must drop its stash copy too: the next miss
    // finds nothing to probe and pays the IOMMU round trip.
    vm_.protect(asid_, base_, kPageSize, kPermRead);
    const std::uint64_t probes_before = vic.victimaProbes();
    iommu_before = vic.iommu()->accesses();
    touch(0);
    EXPECT_EQ(vic.victimaProbes(), probes_before);
    EXPECT_EQ(vic.victimaHits(), 1u);
    EXPECT_EQ(vic.iommu()->accesses(), iommu_before + 1);
}

TEST_F(BaselineTest, StoresWriteThroughL1)
{
    access(base_, /*store=*/true);
    const auto pa = pageBase(vm_.translate(asid_, base_)->ppn);
    EXPECT_FALSE(sys_->caches().l1(0).present(0, pa)); // no allocate
    EXPECT_TRUE(sys_->caches().l2().present(0, pa));
}

TEST(IdealTest, TranslationIsFree)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    SocConfig cfg;
    cfg.gpu.num_cus = 2;
    IdealMmuSystem sys(ctx, cfg, vm, dram);
    const Asid asid = vm.createProcess();
    const Vaddr base = vm.mmapAnon(asid, 4 * kPageSize);

    bool done = false;
    sys.access(0, asid, base, false, [&] { done = true; });
    ctx.eq.run();
    EXPECT_TRUE(done);
    const auto pa = pageBase(vm.translate(asid, base)->ppn);
    EXPECT_TRUE(sys.caches().l1(0).present(0, pa));
}

TEST(IdealTest, L1HitLatencyIsMinimal)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    SocConfig cfg;
    cfg.gpu.num_cus = 1;
    IdealMmuSystem sys(ctx, cfg, vm, dram);
    const Asid asid = vm.createProcess();
    const Vaddr base = vm.mmapAnon(asid, kPageSize);

    sys.access(0, asid, base, false, [] {});
    ctx.eq.run();
    const Tick t0 = ctx.now();
    Tick t1 = 0;
    sys.access(0, asid, base, false, [&] { t1 = ctx.now(); });
    ctx.eq.run();
    EXPECT_EQ(t1 - t0, cfg.l1_latency);
}

} // namespace
} // namespace gvc
