/**
 * @file
 * Integration tests for the L1-only virtual cache design (Figure 11's
 * comparison point) and its line-leading registry.
 */

#include <gtest/gtest.h>

#include "mmu/l1vc_system.hh"

namespace gvc
{
namespace
{

TEST(LineLeadingRegistry, RefCountingAndLeadership)
{
    LineLeadingRegistry reg;
    EXPECT_FALSE(reg.lookup(0x1000).has_value());
    reg.fill(0x1000, 1, 0xAA000);
    reg.fill(0x1000, 2, 0xBB000); // second copy keeps the first leader
    const auto lead = reg.lookup(0x1000);
    ASSERT_TRUE(lead.has_value());
    EXPECT_EQ(lead->asid, 1u);
    EXPECT_EQ(lead->line_va, 0xAA000u);
    reg.evict(0x1000);
    EXPECT_TRUE(reg.lookup(0x1000).has_value());
    reg.evict(0x1000);
    EXPECT_FALSE(reg.lookup(0x1000).has_value());
}

class L1VcTest : public ::testing::Test
{
  protected:
    L1VcTest() : pm_(std::uint64_t{1} << 30), vm_(pm_), dram_(ctx_, {})
    {
        cfg_.gpu.num_cus = 2;
        sys_ = std::make_unique<L1OnlyVcSystem>(ctx_, cfg_, vm_, dram_);
        asid_ = vm_.createProcess();
        base_ = vm_.mmapAnon(asid_, 256 * kPageSize);
    }

    void
    access(Vaddr va, bool store = false, unsigned cu = 0,
           std::optional<Asid> asid = std::nullopt)
    {
        bool done = false;
        sys_->access(cu, asid.value_or(asid_), lineAlign(va), store,
                     [&] { done = true; });
        ctx_.eq.run();
        EXPECT_TRUE(done);
    }

    Tlb &tlb(unsigned cu) { return (*sys_->perCuTlbs())[cu]; }

    SimContext ctx_;
    PhysMem pm_;
    Vm vm_;
    Dram dram_;
    SocConfig cfg_;
    std::unique_ptr<L1OnlyVcSystem> sys_;
    Asid asid_ = 0;
    Vaddr base_ = 0;
};

TEST_F(L1VcTest, L1HitSkipsTlbEntirely)
{
    access(base_);
    const auto tlb_acc = tlb(0).accesses();
    access(base_);
    EXPECT_EQ(tlb(0).accesses(), tlb_acc);
}

TEST_F(L1VcTest, L1MissConsultsTlbBeforePhysicalL2)
{
    access(base_);
    EXPECT_EQ(tlb(0).accesses(), 1u);
    EXPECT_EQ(tlb(0).misses(), 1u);
    // Data cached virtually in the L1, physically in the L2.
    EXPECT_TRUE(sys_->l1(0).present(asid_, base_));
    const auto pa = pageBase(vm_.translate(asid_, base_)->ppn);
    EXPECT_TRUE(sys_->caches().l2().present(0, pa));
}

TEST_F(L1VcTest, SecondLineOfPageHitsTlb)
{
    access(base_);
    access(base_ + kLineSize);
    EXPECT_EQ(tlb(0).misses(), 1u);
    EXPECT_EQ(tlb(0).hits(), 1u);
}

TEST_F(L1VcTest, SynonymReplaysWithLeadingName)
{
    const Vaddr alias =
        vm_.alias(asid_, asid_, base_, kPageSize, kPermRead);
    access(base_);
    access(alias); // same physical line under a second name
    EXPECT_EQ(snapshotOf(*sys_).get("synonym.replays"), 1u);
    // Only the leading name is cached.
    EXPECT_TRUE(sys_->l1(0).present(asid_, base_));
    EXPECT_FALSE(sys_->l1(0).present(asid_, alias));
}

TEST_F(L1VcTest, ShootdownPurgesTlbAndL1)
{
    access(base_);
    vm_.protect(asid_, base_, kPageSize, kPermRead);
    EXPECT_FALSE(tlb(0).present(asid_, pageOf(base_)));
    EXPECT_FALSE(sys_->l1(0).present(asid_, base_));
    EXPECT_FALSE(sys_->registry().lookup(
        pageBase(vm_.translate(asid_, base_)->ppn)) .has_value());
}

TEST_F(L1VcTest, FlushLifetimesCoversTheVirtualL1s)
{
    cfg_.track_lifetimes = true;
    L1OnlyVcSystem sys(ctx_, cfg_, vm_, dram_);
    for (int i = 0; i < 2; ++i) {
        sys.access(0, asid_, base_, false, [] {});
        ctx_.eq.run();
    }
    sys.flushLifetimes();
    // The line was filled, then hit again later: one live lifetime.
    EXPECT_EQ(sys.l1(0).lifetimes().histogram().total(), 1u);
}

TEST_F(L1VcTest, StoresGoThroughToPhysicalL2)
{
    access(base_, /*store=*/true);
    const auto pa = pageBase(vm_.translate(asid_, base_)->ppn);
    EXPECT_FALSE(sys_->l1(0).present(asid_, base_)); // WT no-allocate
    EXPECT_TRUE(sys_->caches().l2().present(0, pa));
}

TEST_F(L1VcTest, RegistryTracksCopiesAcrossCus)
{
    access(base_, false, 0);
    access(base_, false, 1);
    const auto pa = pageBase(vm_.translate(asid_, base_)->ppn);
    const auto lead = sys_->registry().lookup(pa);
    ASSERT_TRUE(lead.has_value());
    EXPECT_EQ(lead->line_va, base_);
}

} // namespace
} // namespace gvc
