/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"

namespace gvc
{
namespace
{

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenDrained)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(4, [&] { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilLeavesLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(4, [&] { ++fired; });
    eq.schedule(50, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunWithBudgetStops)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(Tick(i), [&] { ++fired; });
    const auto n = eq.run(4);
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(fired, 4);
    eq.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.run();
    eq.schedule(9, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, RunningCallbackSurvivesSlotChunkGrowth)
{
    // One callback schedules more same-tick events than three slot
    // chunks hold, so the pool grows while it runs.  It must still see
    // its own captures afterwards, and the new events run in order.
    EventQueue eq;
    const std::uint32_t n = 3 * EventQueue::kSlotChunk + 7;
    std::vector<std::uint32_t> order;
    std::uint32_t seen_after = 0;
    const std::uint32_t tag = 0xC0FFEE;
    eq.schedule(4, [&eq, &order, &seen_after, n, tag] {
        for (std::uint32_t i = 0; i < n; ++i)
            eq.schedule(4, [&order, i] { order.push_back(i); });
        seen_after = tag + n; // reads the captures after the growth
    });
    eq.run();
    EXPECT_EQ(seen_after, tag + n);
    ASSERT_EQ(order.size(), std::size_t(n));
    for (std::uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(order[i], i);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_EQ(eq.executed(), std::uint64_t(n) + 1);
}

TEST(EventQueue, RecycledSlotsKeepFifoAcrossChunks)
{
    // Slots freed by one tick are reused by the next in LIFO order;
    // FIFO within a tick must not depend on which slot an event got.
    EventQueue eq;
    const std::uint32_t n = EventQueue::kSlotChunk + 3;
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < n; ++i)
        eq.schedule(1, [] {});
    eq.run();
    for (std::uint32_t i = 0; i < 2 * n; ++i)
        eq.schedule(2, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), std::size_t(2 * n));
    for (std::uint32_t i = 0; i < 2 * n; ++i)
        ASSERT_EQ(order[i], i);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

} // namespace
} // namespace gvc
