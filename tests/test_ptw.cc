/**
 * @file
 * Unit tests for the page-walk cache and the multi-threaded walker.
 */

#include <gtest/gtest.h>

#include <vector>

#include "tlb/ptw.hh"

namespace gvc
{
namespace
{

TEST(PageWalkCache, MissThenHit)
{
    PageWalkCache pwc(8 * 1024, 8);
    EXPECT_FALSE(pwc.lookup(0x1000));
    pwc.insert(0x1000);
    EXPECT_TRUE(pwc.lookup(0x1000));
    // Same 64 B page-table line.
    EXPECT_TRUE(pwc.lookup(0x1038));
    // Different line.
    EXPECT_FALSE(pwc.lookup(0x1040));
}

TEST(PageWalkCache, InvalidateAllClears)
{
    PageWalkCache pwc;
    pwc.insert(0x2000);
    pwc.invalidateAll();
    EXPECT_FALSE(pwc.lookup(0x2000));
}

TEST(PageWalkCache, CapacityIsBounded)
{
    PageWalkCache pwc(1024, 4); // 16 lines
    for (Paddr a = 0; a < 64 * 64; a += 64)
        pwc.insert(a);
    unsigned resident = 0;
    for (Paddr a = 0; a < 64 * 64; a += 64)
        resident += pwc.lookup(a) ? 1 : 0;
    EXPECT_LE(resident, 16u);
}

class PtwTest : public ::testing::Test
{
  protected:
    PtwTest() : pm_(std::uint64_t{1} << 30), vm_(pm_), dram_(ctx_, {})
    {
        asid_ = vm_.createProcess();
        base_ = vm_.mmapAnon(asid_, 64 * kPageSize);
    }

    SimContext ctx_;
    PhysMem pm_;
    Vm vm_;
    Dram dram_;
    Asid asid_ = 0;
    Vaddr base_ = 0;
};

TEST_F(PtwTest, WalkDeliversTranslation)
{
    PageTableWalker ptw(ctx_, vm_, dram_);
    std::optional<Translation> result;
    ptw.walk(asid_, pageOf(base_),
             [&](std::optional<Translation> t) { result = t; });
    ctx_.eq.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->ppn, vm_.translate(asid_, base_)->ppn);
}

TEST_F(PtwTest, WalkOfUnmappedReportsFault)
{
    PageTableWalker ptw(ctx_, vm_, dram_);
    bool called = false;
    std::optional<Translation> result;
    ptw.walk(asid_, 0xDEAD000, [&](std::optional<Translation> t) {
        called = true;
        result = t;
    });
    ctx_.eq.run();
    EXPECT_TRUE(called);
    EXPECT_FALSE(result.has_value());
}

TEST_F(PtwTest, ConcurrencyIsBounded)
{
    PtwParams params;
    params.max_concurrent = 4;
    PageTableWalker ptw(ctx_, vm_, dram_, params);
    unsigned done = 0;
    for (int i = 0; i < 32; ++i) {
        ptw.walk(asid_, pageOf(base_) + i,
                 [&](std::optional<Translation>) { ++done; });
        EXPECT_LE(ptw.active(), 4u);
    }
    ctx_.eq.run();
    EXPECT_EQ(done, 32u);
    EXPECT_EQ(snapshotOf(ptw).get("completed"), 32u);
}

TEST_F(PtwTest, PwcAcceleratesRepeatWalksOfNeighbors)
{
    PageTableWalker ptw(ctx_, vm_, dram_);
    Tick first_latency = 0, second_latency = 0;
    const Tick t0 = ctx_.now();
    ptw.walk(asid_, pageOf(base_),
             [&](std::optional<Translation>) {
                 first_latency = ctx_.now() - t0;
                 const Tick t1 = ctx_.now();
                 // The sibling page shares the three upper levels.
                 ptw.walk(asid_, pageOf(base_) + 1,
                          [&, t1](std::optional<Translation>) {
                              second_latency = ctx_.now() - t1;
                          });
             });
    ctx_.eq.run();
    EXPECT_GT(first_latency, 0u);
    EXPECT_LT(second_latency, first_latency);
}

TEST_F(PtwTest, LeafAccessAlwaysGoesToMemory)
{
    PageTableWalker ptw(ctx_, vm_, dram_);
    // Warm every level.
    ptw.walk(asid_, pageOf(base_), [](std::optional<Translation>) {});
    ctx_.eq.run();
    const auto dram_before = dram_.accesses();
    ptw.walk(asid_, pageOf(base_), [](std::optional<Translation>) {});
    ctx_.eq.run();
    // The repeat walk still fetched its leaf PTE from memory.
    EXPECT_EQ(dram_.accesses(), dram_before + 1);
}

TEST_F(PtwTest, MeanLatencyAccountsQueueing)
{
    PtwParams params;
    params.max_concurrent = 1;
    PageTableWalker ptw(ctx_, vm_, dram_, params);
    for (int i = 0; i < 8; ++i)
        ptw.walk(asid_, pageOf(base_) + i,
                 [](std::optional<Translation>) {});
    ctx_.eq.run();
    // With one thread, later walks queue; mean latency exceeds one
    // isolated walk (4 memory accesses ~ 4 * ~121 cycles).
    const StatSnapshot s = snapshotOf(ptw);
    EXPECT_GT(double(s.get("latency_sum")) / double(s.get("completed")),
              400.0);
}

} // namespace
} // namespace gvc
