/**
 * @file
 * Unit tests for the MSHR table and the rate-limited bank port.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/bank_port.hh"
#include "cache/mshr.hh"

namespace gvc
{
namespace
{

/** A waiting request: MshrTable chains these through mshr_next. */
struct Waiter
{
    int id = 0;
    bool is_store = false;
    Waiter *mshr_next = nullptr;
};

using Table = MshrTable<Waiter>;

/** Complete @p key and return the woken waiters' ids in wake order. */
std::vector<int>
wake(Table &mshrs, std::uint64_t key)
{
    std::vector<int> ids;
    mshrs.complete(key, [&ids](Waiter *w) { ids.push_back(w->id); });
    return ids;
}

TEST(Mshr, PrimaryThenSecondariesMerge)
{
    Table mshrs;
    Waiter w[3] = {{0}, {1}, {2}};
    EXPECT_EQ(mshrs.allocate(42, &w[0], false), Table::Result::kPrimary);
    EXPECT_EQ(mshrs.allocate(42, &w[1], false), Table::Result::kSecondary);
    EXPECT_EQ(mshrs.allocate(42, &w[2], false), Table::Result::kSecondary);
    EXPECT_TRUE(mshrs.outstanding(42));
    EXPECT_EQ(mshrs.allocations(), 1u);
    EXPECT_EQ(mshrs.merges(), 3u); // the primary counts as its own merge
    // The primary is queued first and woken with its secondaries.
    EXPECT_EQ(wake(mshrs, 42), (std::vector<int>{0, 1, 2}));
    EXPECT_FALSE(mshrs.outstanding(42));
}

TEST(Mshr, DistinctKeysAreIndependent)
{
    Table mshrs;
    Waiter a{1}, b{2};
    EXPECT_EQ(mshrs.allocate(1, &a, false), Table::Result::kPrimary);
    EXPECT_EQ(mshrs.allocate(2, &b, false), Table::Result::kPrimary);
    EXPECT_EQ(mshrs.inFlight(), 2u);
    EXPECT_EQ(wake(mshrs, 2), (std::vector<int>{2}));
    EXPECT_EQ(wake(mshrs, 1), (std::vector<int>{1}));
}

TEST(Mshr, CapacityLimitRejects)
{
    Table mshrs(2);
    Waiter w[5] = {{0}, {1}, {2}, {3}, {4}};
    EXPECT_EQ(mshrs.allocate(1, &w[0], false), Table::Result::kPrimary);
    EXPECT_EQ(mshrs.allocate(2, &w[1], false), Table::Result::kPrimary);
    EXPECT_EQ(mshrs.allocate(3, &w[2], false), Table::Result::kFull);
    EXPECT_EQ(mshrs.rejections(), 1u);
    // Merging into an existing entry is still allowed when full.
    EXPECT_EQ(mshrs.allocate(1, &w[3], false), Table::Result::kSecondary);
    // A rejected waiter was not queued anywhere.
    EXPECT_EQ(wake(mshrs, 1), (std::vector<int>{0, 3}));
    EXPECT_EQ(mshrs.allocate(3, &w[2], false), Table::Result::kPrimary);
}

TEST(Mshr, CompleteOfUnknownKeyIsNoop)
{
    Table mshrs;
    EXPECT_TRUE(wake(mshrs, 7).empty()); // must not crash
    EXPECT_EQ(mshrs.inFlight(), 0u);
}

TEST(Mshr, WakeOrderIsMergeOrder)
{
    Table mshrs;
    Waiter w[5] = {{0}, {1}, {2}, {3}, {4}};
    for (auto &x : w)
        mshrs.allocate(5, &x, false);
    EXPECT_EQ(wake(mshrs, 5), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mshr, WakeMayRecycleAWaiterIntoANewEntry)
{
    // Completion reads each link before waking, so a waiter recycled
    // by its wake-up (here: re-queued at once) does not cut the chain.
    Table mshrs;
    Waiter w[3] = {{0}, {1}, {2}};
    for (auto &x : w)
        mshrs.allocate(5, &x, false);
    std::vector<int> order;
    mshrs.complete(5, [&](Waiter *x) {
        order.push_back(x->id);
        mshrs.allocate(6, x, false);
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(wake(mshrs, 6), (std::vector<int>{0, 1, 2}));
}

TEST(Mshr, StoreFlagIsTheOrOfEveryWaiter)
{
    Table mshrs;
    Waiter load{0}, store{1}, late{2};
    mshrs.allocate(9, &load, false);
    EXPECT_FALSE(mshrs.storePending(9));
    mshrs.allocate(9, &store, true);
    mshrs.allocate(9, &late, false);
    EXPECT_TRUE(mshrs.storePending(9));
    wake(mshrs, 9);
    // A fresh entry for the same key starts clean.
    mshrs.allocate(9, &load, false);
    EXPECT_FALSE(mshrs.storePending(9));
    EXPECT_FALSE(mshrs.storePending(10));
}

TEST(BankPort, IdlePortServesImmediately)
{
    BankPort port(1.0);
    EXPECT_EQ(port.acquire(100), 100u);
}

TEST(BankPort, BackToBackSerializes)
{
    BankPort port(1.0);
    EXPECT_EQ(port.acquire(10), 10u);
    EXPECT_EQ(port.acquire(10), 11u);
    EXPECT_EQ(port.acquire(10), 12u);
    EXPECT_GT(port.meanWait(), 0.0);
}

TEST(BankPort, FractionalRatesAccumulateExactly)
{
    BankPort port(2.0); // two accesses per cycle
    EXPECT_EQ(port.acquire(0), 0u);
    EXPECT_EQ(port.acquire(0), 0u);
    EXPECT_EQ(port.acquire(0), 1u);
    EXPECT_EQ(port.acquire(0), 1u);
    EXPECT_EQ(port.acquire(0), 2u);
}

TEST(BankPort, IdleTimeIsNotBanked)
{
    BankPort port(1.0);
    port.acquire(0);
    port.acquire(0);
    // Long idle: next access is served at its arrival time.
    EXPECT_EQ(port.acquire(1000), 1000u);
}

} // namespace
} // namespace gvc
