/**
 * @file
 * Unit tests for the memory coalescer and its divergence statistics.
 */

#include <gtest/gtest.h>

#include "gpu/coalescer.hh"

namespace gvc
{
namespace
{

TEST(Coalescer, FullyCoalescedWarpIsOneLine)
{
    Coalescer c;
    std::vector<Vaddr> addrs;
    for (unsigned l = 0; l < 32; ++l)
        addrs.push_back(0x1000 + l * 4);
    const auto lines = c.coalesce(addrs);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x1000u);
}

TEST(Coalescer, SequentialWordsSpanExpectedLines)
{
    Coalescer c;
    std::vector<Vaddr> addrs;
    for (unsigned l = 0; l < 32; ++l)
        addrs.push_back(0x1000 + l * 8); // 256 bytes = 2 lines
    EXPECT_EQ(c.coalesce(addrs).size(), 2u);
}

TEST(Coalescer, FullyDivergentWarpIsThirtyTwoLines)
{
    Coalescer c;
    std::vector<Vaddr> addrs;
    for (unsigned l = 0; l < 32; ++l)
        addrs.push_back(std::uint64_t(l) * kPageSize);
    EXPECT_EQ(c.coalesce(addrs).size(), 32u);
}

TEST(Coalescer, PreservesFirstTouchOrder)
{
    Coalescer c;
    const auto lines =
        c.coalesce({0x5000, 0x1000, 0x5001, 0x9000, 0x1004});
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], 0x5000u);
    EXPECT_EQ(lines[1], 0x1000u);
    EXPECT_EQ(lines[2], 0x9000u);
}

TEST(Coalescer, EmptyWarp)
{
    Coalescer c;
    EXPECT_TRUE(c.coalesce({}).empty());
}

TEST(Coalescer, DivergenceStatistics)
{
    Coalescer c;
    c.coalesce({0x0, 0x80, 0x100, 0x180}); // 4 lines, 1 page
    std::vector<Vaddr> divergent;
    for (unsigned l = 0; l < 8; ++l)
        divergent.push_back(std::uint64_t(l) * kPageSize);
    c.coalesce(divergent); // 8 lines, 8 pages
    EXPECT_EQ(c.instructions(), 2u);
    EXPECT_EQ(c.linesEmitted(), 12u);
    c.coalesce({});
    EXPECT_EQ(c.instructions(), 3u);
    EXPECT_EQ(c.linesEmitted(), 12u);
}

} // namespace
} // namespace gvc
