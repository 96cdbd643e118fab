/**
 * @file
 * Tests for the shared physical cache pipeline (PhysCaches) used by the
 * IDEAL/baseline designs: write-through L1s, banked write-back L2,
 * MSHR merging, and victim writebacks.
 */

#include <gtest/gtest.h>

#include "mmu/phys_caches.hh"

namespace gvc
{
namespace
{

class PhysCachesTest : public ::testing::Test
{
  protected:
    PhysCachesTest() : dram_(ctx_, {})
    {
        cfg_.gpu.num_cus = 2;
        caches_ = std::make_unique<PhysCaches>(ctx_, cfg_, dram_, reqs_);
    }

    /** A request for physical line @p pa (already translated). */
    MemRequest *
    request(unsigned cu, Paddr pa, bool store, Callback done)
    {
        MemRequest *req = reqs_.make(cu, 0, pa, store, std::move(done));
        req->line_pa = lineAlign(pa);
        return req;
    }

    Tick
    accessL1(Paddr pa, bool store = false, unsigned cu = 0)
    {
        bool done = false;
        Tick at = 0;
        caches_->accessL1(request(cu, pa, store, [&] {
            done = true;
            at = ctx_.now();
        }));
        ctx_.eq.run();
        EXPECT_TRUE(done);
        EXPECT_EQ(reqs_.inFlight(), 0u);
        return at;
    }

    SimContext ctx_;
    Dram dram_;
    SocConfig cfg_;
    RequestPool reqs_;
    std::unique_ptr<PhysCaches> caches_;
};

TEST_F(PhysCachesTest, LoadMissFillsL1AndL2)
{
    accessL1(0x10000);
    EXPECT_TRUE(caches_->l1(0).present(0, 0x10000));
    EXPECT_TRUE(caches_->l2().present(0, 0x10000));
}

TEST_F(PhysCachesTest, L1HitIsFast)
{
    accessL1(0x10000);
    const Tick t0 = ctx_.now();
    const Tick t1 = accessL1(0x10000);
    EXPECT_EQ(t1 - t0, cfg_.l1_latency);
}

TEST_F(PhysCachesTest, L2HitAvoidsDram)
{
    accessL1(0x10000, false, 0);
    const auto dram_before = dram_.accesses();
    accessL1(0x10000, false, 1); // other CU: L1 miss, L2 hit
    EXPECT_EQ(dram_.accesses(), dram_before);
    EXPECT_TRUE(caches_->l1(1).present(0, 0x10000));
}

TEST_F(PhysCachesTest, StoreWritesThroughWithoutL1Allocate)
{
    accessL1(0x20000, /*store=*/true);
    EXPECT_FALSE(caches_->l1(0).present(0, 0x20000));
    EXPECT_TRUE(caches_->l2().present(0, 0x20000));
}

TEST_F(PhysCachesTest, StoreHitUpdatesL1Copy)
{
    accessL1(0x20000, false); // load fills L1
    accessL1(0x20000, true);  // store hits and writes through
    EXPECT_TRUE(caches_->l1(0).present(0, 0x20000));
    // The L2 line is dirty (write-back L2 absorbed the store).
    const auto info = caches_->l2().invalidateLine(0, 0x20000);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->dirty);
}

TEST_F(PhysCachesTest, ConcurrentMissesToOneLineMergeInMshr)
{
    unsigned done = 0;
    for (int i = 0; i < 6; ++i)
        caches_->accessL1(request(0, 0x30000, false, [&] { ++done; }));
    ctx_.eq.run();
    EXPECT_EQ(done, 6u);
    EXPECT_EQ(reqs_.inFlight(), 0u);
    // One demand fill moved one line from DRAM.
    EXPECT_EQ(dram_.accesses(), 1u);
    EXPECT_GE(caches_->mshrs().merges(), 5u);
}

TEST_F(PhysCachesTest, DirtyVictimsAreWrittenBack)
{
    // Fill one L2 set beyond capacity with dirty lines.
    // Set count: 2MB/128B/16 ways = 1024 sets; same set repeats every
    // 1024 lines.
    const std::uint64_t stride = 1024 * kLineSize;
    for (int i = 0; i < 17; ++i)
        accessL1(Paddr(i) * stride, /*store=*/true);
    // 17 dirty lines into a 16-way set: one dirty writeback happened.
    // DRAM saw 17 fills + at least 1 writeback.
    EXPECT_GE(dram_.accesses(), 18u);
}

TEST_F(PhysCachesTest, BanksSpreadContention)
{
    // Lines mapping to different banks proceed without port conflicts;
    // the mean wait stays small for a modest burst.
    unsigned done = 0;
    for (int i = 0; i < 8; ++i)
        caches_->accessL2(
            request(0, Paddr(i) * kLineSize, false, [&] { ++done; }));
    ctx_.eq.run();
    EXPECT_EQ(done, 8u);
}

} // namespace
} // namespace gvc
