/**
 * @file
 * Unit tests for the bandwidth-limited DRAM model.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"

namespace gvc
{
namespace
{

TEST(Dram, SingleAccessTakesAccessLatency)
{
    SimContext ctx;
    Dram::Params p;
    p.access_latency = 100;
    p.bytes_per_cycle = 256;
    Dram dram(ctx, p);
    Tick done_at = 0;
    dram.access(128, [&] { done_at = ctx.now(); });
    ctx.eq.run();
    // 128 bytes at 256 B/cycle = 0.5 cycles (rounds up) + latency.
    EXPECT_EQ(done_at, 101u);
}

TEST(Dram, BandwidthLimitsBackToBackAccesses)
{
    SimContext ctx;
    Dram::Params p;
    p.access_latency = 10;
    p.bytes_per_cycle = 128; // one line per cycle
    Dram dram(ctx, p);
    std::vector<Tick> completions;
    for (int i = 0; i < 8; ++i)
        dram.access(128, [&] { completions.push_back(ctx.now()); });
    ctx.eq.run();
    ASSERT_EQ(completions.size(), 8u);
    // Channel serializes: one line per cycle.
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(completions[i] - completions[i - 1], 1u);
}

TEST(Dram, IdleChannelDoesNotAccumulateCredit)
{
    SimContext ctx;
    Dram::Params p;
    p.access_latency = 5;
    p.bytes_per_cycle = 128;
    Dram dram(ctx, p);
    Tick first = 0, second = 0;
    dram.access(128, [&] { first = ctx.now(); });
    ctx.eq.run();
    ctx.eq.schedule(100, [&] {
        dram.access(128, [&] { second = ctx.now(); });
    });
    ctx.eq.run();
    EXPECT_EQ(second, 106u); // starts fresh at t=100
    EXPECT_EQ(first, 6u);
}

TEST(Dram, TracksTraffic)
{
    SimContext ctx;
    Dram dram(ctx, {});
    dram.access(128, [] {});
    dram.access(64, [] {});
    ctx.eq.run();
    EXPECT_EQ(dram.accesses(), 2u);
    EXPECT_EQ(snapshotOf(dram).get("bytes"), 192u);
}

TEST(Dram, QueueDelayIsMeasured)
{
    SimContext ctx;
    Dram::Params p;
    p.access_latency = 1;
    p.bytes_per_cycle = 1; // extremely slow: 128 cycles per line
    Dram dram(ctx, p);
    for (int i = 0; i < 4; ++i)
        dram.access(128, [] {});
    ctx.eq.run();
    // A mean wait above 100 cycles per access.
    const StatSnapshot s = snapshotOf(dram);
    EXPECT_GT(s.get("queue_delay"), 100 * s.get("accesses"));
}

} // namespace
} // namespace gvc
