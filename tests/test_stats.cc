/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/stats.hh"

namespace gvc
{
namespace
{

TEST(Distribution, MeanAndStdev)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_NEAR(d.stdev(), 2.0, 1e-9);
    EXPECT_EQ(d.min(), 2.0);
    EXPECT_EQ(d.max(), 9.0);
    EXPECT_EQ(d.count(), 8u);
}

TEST(Distribution, ZeroSamplesInBulk)
{
    Distribution d;
    d.sample(10.0);
    d.sampleZeros(9);
    EXPECT_EQ(d.count(), 10u);
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
    EXPECT_EQ(d.min(), 0.0);
}

TEST(Distribution, EmptyIsSafe)
{
    Distribution d;
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.stdev(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
}

TEST(LinearHistogram, QuantilesAndCdf)
{
    LinearHistogram h(10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(double(i));
    EXPECT_EQ(h.total(), 100u);
    EXPECT_NEAR(h.cdfAt(49.0), 0.5, 1e-9);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 10.0);
    EXPECT_NEAR(h.cdfAt(99.0), 1.0, 1e-9);
}

TEST(LinearHistogram, OverflowBucketCatchesLargeValues)
{
    LinearHistogram h(1.0, 4);
    h.sample(1000.0);
    EXPECT_EQ(h.total(), 1u);
    EXPECT_NEAR(h.cdfAt(1000.0), 1.0, 1e-9);
}

TEST(LinearHistogram, MergeAddsCounts)
{
    LinearHistogram a(1.0, 4), b(1.0, 4);
    a.sample(0.5);
    b.sample(2.5);
    a.merge(b);
    EXPECT_EQ(a.total(), 2u);
    EXPECT_NEAR(a.cdfAt(0.5), 0.5, 1e-9);
}

TEST(IntervalSampler, CountsPerWindow)
{
    IntervalSampler s(100);
    // Window 0: 50 events; window 1: 100 events; windows 2-3: none;
    // window 4: 10 events.
    for (int i = 0; i < 50; ++i)
        s.record(10);
    for (int i = 0; i < 100; ++i)
        s.record(150);
    for (int i = 0; i < 10; ++i)
        s.record(450);
    s.finish(500);
    EXPECT_EQ(s.windows(), 5u);
    EXPECT_NEAR(s.meanPerCycle(), (0.5 + 1.0 + 0.0 + 0.0 + 0.1) / 5.0,
                1e-9);
    EXPECT_NEAR(s.maxPerCycle(), 1.0, 1e-9);
}

TEST(IntervalSampler, FractionAboveThreshold)
{
    IntervalSampler s(10, 1.0);
    // Window 0: 20 events (rate 2 > 1); window 1: 5 events (rate 0.5).
    for (int i = 0; i < 20; ++i)
        s.record(3);
    for (int i = 0; i < 5; ++i)
        s.record(15);
    s.finish(20);
    EXPECT_EQ(s.windows(), 2u);
    EXPECT_NEAR(s.fractionAboveThreshold(), 0.5, 1e-9);
}

TEST(IntervalSampler, LongIdleGapsProduceZeroWindows)
{
    IntervalSampler s(10);
    s.record(5);
    s.record(100005);
    s.finish(100010);
    EXPECT_EQ(s.windows(), 10001u);
    EXPECT_NEAR(s.meanPerCycle(), 2.0 / 100010.0, 1e-7);
}

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    ++c;
    c += 4;
    EXPECT_EQ(c.value, 5u);
    c.reset();
    EXPECT_EQ(c.value, 0u);
}

/** A component with a two-row list, like CacheArray. */
struct FakeArray
{
    std::uint64_t accesses, hits;

    void
    stats(StatSink &s) const
    {
        s("accesses", accesses);
        s("hits", hits);
    }
};

/** Two per-CU L1s and an L2 under their scopes, plus one bare row. */
StatSnapshot
fakeSnapshot()
{
    Counter ticks;
    ticks += 7;
    StatSink s;
    s("sim.ticks", ticks);
    s.scope("l1", FakeArray{10, 4});
    s.scope("l2", FakeArray{6, 5});
    s.scope("l1", FakeArray{20, 8});
    return std::move(s).snapshot();
}

TEST(StatSnapshot, RepeatedPathsSum)
{
    const StatSnapshot snap = fakeSnapshot();
    EXPECT_EQ(snap.get("l1.accesses"), 30u);
    EXPECT_EQ(snap.get("l1.hits"), 12u);
    EXPECT_EQ(snap.get("l2.accesses"), 6u);
    EXPECT_EQ(snap.get("sim.ticks"), 7u);
    EXPECT_EQ(snap.rows.size(), 5u);
}

TEST(StatSnapshot, RowsAreSortedByPath)
{
    const std::vector<StatSnapshot::Row> want = {
        {"l1.accesses", 30}, {"l1.hits", 12}, {"l2.accesses", 6},
        {"l2.hits", 5},      {"sim.ticks", 7}};
    EXPECT_EQ(fakeSnapshot().rows, want);
}

TEST(StatSnapshot, AbsentPathReadsZero)
{
    const StatSnapshot snap = fakeSnapshot();
    EXPECT_EQ(snap.get("l3.accesses"), 0u);
    EXPECT_EQ(snap.get("l1"), 0u);       // a scope is not a row
    EXPECT_EQ(snap.get("l1.hitsx"), 0u); // nor a longer path
    EXPECT_EQ(snap.get(""), 0u);
    EXPECT_EQ(StatSnapshot{}.get("sim.ticks"), 0u);
}

TEST(LifetimeRecorder, RecordsDurations)
{
    LifetimeRecorder r(10.0, 100);
    r.record(5);
    r.record(15);
    r.record(995);
    EXPECT_EQ(r.distribution().count(), 3u);
    EXPECT_NEAR(r.histogram().cdfAt(20.0), 2.0 / 3.0, 1e-9);
}

} // namespace
} // namespace gvc
