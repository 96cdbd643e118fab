/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace gvc
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformThresholdDecidesLikeUniform)
{
    Rng a(13), b(13);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(double(a.draw53()) * 0x1.0p-53, b.uniform());

    constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
    const double ps[] = {0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.5,
                         1e-300, 0x1.0p-53, 1.0 - 0x1.0p-53, 0.0, -0.25,
                         1.0, 3.0, std::nan("")};
    Rng r(17);
    for (const double p : ps) {
        const std::uint64_t k = Rng::uniformThreshold(p);
        std::vector<std::uint64_t> xs = {0, kTop};
        for (const std::uint64_t x : {k - 2, k - 1, k, k + 1, k + 2})
            if (x <= kTop) // k - d wraps above kTop when k < d
                xs.push_back(x);
        for (int i = 0; i < 1000; ++i)
            xs.push_back(r.draw53());
        for (const std::uint64_t x : xs)
            EXPECT_EQ(x < k, double(x) * 0x1.0p-53 < p)
                << "p=" << p << " x=" << x;
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(double(hits) / n, 0.25, 0.02);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng r(17);
    int buckets[8] = {};
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++buckets[r.below(8)];
    for (const int b : buckets)
        EXPECT_NEAR(double(b) / n, 0.125, 0.01);
}

} // namespace
} // namespace gvc
