/**
 * @file
 * Unit tests for the memory coalescer and its divergence statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "gpu/coalescer.hh"
#include "sim/rng.hh"

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
    EXPECT_TRUE(c.coalesce(std::vector<Vaddr>{}).empty());
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
    c.coalesce(std::vector<Vaddr>{});
    EXPECT_EQ(c.instructions(), 3u);
    EXPECT_EQ(c.linesEmitted(), 12u);
}

/**
 * The coalescer as it was first written: a linear search of the lines
 * emitted so far.  Quadratic in divergent warps, but plainly right, so
 * the hashed dedupe is checked against it.
 */
std::vector<Vaddr>
referenceCoalesce(const std::vector<Vaddr> &lanes)
{
    std::vector<Vaddr> lines;
    for (const Vaddr va : lanes) {
        const Vaddr line = lineAlign(va);
        if (!lines.empty() && lines.back() == line)
            continue;
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }
    return lines;
}

/** Lane sets of 0-32 lanes: random, all-same, all-distinct, and lines
 *  that come back after a gap. */
std::vector<std::vector<Vaddr>>
laneSets()
{
    std::vector<std::vector<Vaddr>> sets;
    Rng rng(2718);
    for (unsigned n = 0; n <= kWarpLanes; ++n) {
        std::vector<Vaddr> same(n, 0x7000'0040), distinct, gap;
        for (unsigned l = 0; l < n; ++l) {
            distinct.push_back(Vaddr(l) * kPageSize + 8 * l);
            gap.push_back(Vaddr(l % 3) * kLineSize * 5 + l);
        }
        sets.push_back(same);
        sets.push_back(distinct);
        sets.push_back(gap);
        // Random lanes from spans narrow enough to repeat lines, and
        // wide enough that no two collide; some span the whole space.
        for (const std::uint64_t span :
             {std::uint64_t{kLineSize * 4}, std::uint64_t{kPageSize * 8},
              std::uint64_t{1} << 40}) {
            for (int rep = 0; rep < 8; ++rep) {
                std::vector<Vaddr> lanes;
                for (unsigned l = 0; l < n; ++l)
                    lanes.push_back(rng.below(span));
                sets.push_back(lanes);
            }
        }
        std::vector<Vaddr> top;
        for (unsigned l = 0; l < n; ++l)
            top.push_back(~Vaddr(0) - rng.below(kPageSize * 4));
        sets.push_back(top);
    }
    return sets;
}

TEST(Coalescer, MatchesTheLinearSearchInLockstep)
{
    // One coalescer per input form, run across every set in turn, so
    // each call also proves the table forgot the call before it.
    Coalescer from_vector, from_view;
    std::uint64_t instructions = 0, lines = 0;
    for (const std::vector<Vaddr> &lanes : laneSets()) {
        const std::vector<Vaddr> want = referenceCoalesce(lanes);
        ASSERT_EQ(from_vector.coalesce(lanes), want);
        const WarpInsts packed = WarpBuilder().load(lanes).finish();
        ASSERT_EQ(from_view.coalesce(packed[0].lane_addrs), want);
        ++instructions;
        lines += want.size();
    }
    EXPECT_EQ(from_vector.instructions(), instructions);
    EXPECT_EQ(from_vector.linesEmitted(), lines);
    EXPECT_EQ(from_view.instructions(), instructions);
    EXPECT_EQ(from_view.linesEmitted(), lines);
}

} // namespace
} // namespace gvc
