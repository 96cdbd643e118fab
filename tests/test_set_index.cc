/**
 * @file
 * SetIndex, the set and bank selector every array uses: both of its
 * branches (mask for power-of-two counts, modulo otherwise) must equal
 * plain key % n.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "sim/set_index.hh"

namespace gvc
{
namespace
{

TEST(SetIndex, BothBranchesEqualPlainModulo)
{
    Rng rng(7);
    for (const std::uint64_t n :
         {1ull, 2ull, 3ull, 8ull, 12ull, 24ull, 48ull, 64ull, 1000ull,
          1024ull, (1ull << 32) + 1, 1ull << 40}) {
        const SetIndex set(n);
        EXPECT_EQ(set.size(), n);
        EXPECT_EQ(set.isPowerOfTwo(), (n & (n - 1)) == 0) << n;
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t key = rng();
            ASSERT_EQ(set(key), key % n) << "n=" << n << " key=" << key;
        }
        // Small keys and the extremes of the key range.
        for (std::uint64_t key = 0; key < 3 * n && key < 4096; ++key)
            ASSERT_EQ(set(key), key % n);
        EXPECT_EQ(set(~std::uint64_t{0}), ~std::uint64_t{0} % n);
    }
}

TEST(SetIndex, ZeroSetsMeansOne)
{
    const SetIndex set(0);
    EXPECT_EQ(set.size(), 1u);
    EXPECT_EQ(set(12345), 0u);
    EXPECT_EQ(SetIndex{}(99), 0u);
}

} // namespace
} // namespace gvc
