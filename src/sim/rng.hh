/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis and
 * randomized replacement.  xoshiro256** seeded via SplitMix64; every
 * simulation is reproducible from a single seed.
 */

#ifndef GVC_SIM_RNG_HH
#define GVC_SIM_RNG_HH

#include <cmath>
#include <cstdint>

namespace gvc
{

/** SplitMix64 step, used to expand a single seed into xoshiro state. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** generator.  Fast, high-quality, and entirely deterministic;
 * satisfies the std UniformRandomBitGenerator requirements so it can also
 * drive <random> distributions where convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit constexpr Rng(std::uint64_t seed = 0x9022bd46aull)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    constexpr result_type
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    constexpr std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire-style multiply-shift; bias is negligible for our bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>((*this)()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    constexpr std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** The 53 random bits uniform() scales into [0, 1). */
    constexpr std::uint64_t
    draw53()
    {
        return (*this)() >> 11;
    }

    /** Uniform double in [0, 1). */
    constexpr double
    uniform()
    {
        return double(draw53()) * 0x1.0p-53;
    }

    /**
     * The integer k with (draw53() < k) == (uniform() < p) for every
     * draw: uniform() is draw53() * 2^-53 exactly, so a hot loop can
     * compare integers instead of converting each draw.
     */
    static std::uint64_t
    uniformThreshold(double p)
    {
        constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
        if (!(p > 0)) // also NaN, which no draw is below
            return 0;
        if (p >= 1)
            return kOne;
        return std::uint64_t(std::ceil(std::ldexp(p, 53)));
    }

    /** Bernoulli draw with probability @p p. */
    constexpr bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
};

} // namespace gvc

#endif // GVC_SIM_RNG_HH
