/**
 * @file
 * Unit tests for the per-L1 invalidation filter, including the
 * conservative overflow behaviour.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "core/invalidation_filter.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

/**
 * The filter as it was written before its entries became one flat
 * sets x assoc array: a vector per set, grown on demand, with a match
 * pass and a separate free-entry pass.  Kept as the reference the flat
 * filter must match step for step.
 */
class ReferenceFilter
{
  public:
    ReferenceFilter(unsigned entries, unsigned assoc)
        : assoc_(assoc), num_sets_(entries / assoc ? entries / assoc : 1),
          sets_(num_sets_)
    {
    }

    void
    lineFilled(Asid asid, Vpn vpn)
    {
        auto &set = sets_[setIndex(asid, vpn)];
        for (auto &e : set.entries) {
            if (e.valid && e.asid == asid && e.vpn == vpn) {
                ++e.count;
                return;
            }
        }
        for (auto &e : set.entries) {
            if (!e.valid || e.count == 0) {
                e = Entry{true, asid, vpn, 1};
                return;
            }
        }
        if (set.entries.size() < assoc_) {
            set.entries.push_back(Entry{true, asid, vpn, 1});
            return;
        }
        set.overflowed = true;
        ++overflows;
    }

    void
    lineEvicted(Asid asid, Vpn vpn)
    {
        auto &set = sets_[setIndex(asid, vpn)];
        for (auto &e : set.entries) {
            if (e.valid && e.asid == asid && e.vpn == vpn) {
                if (e.count > 0)
                    --e.count;
                if (e.count == 0)
                    e.valid = false;
                return;
            }
        }
    }

    bool
    maybePresent(Asid asid, Vpn vpn) const
    {
        const auto &set = sets_[setIndex(asid, vpn)];
        if (set.overflowed)
            return true;
        for (const auto &e : set.entries)
            if (e.valid && e.asid == asid && e.vpn == vpn && e.count > 0)
                return true;
        return false;
    }

    bool
    onInvalidate(Asid asid, Vpn vpn)
    {
        ++invalidations;
        if (maybePresent(asid, vpn)) {
            ++flushes;
            return true;
        }
        ++filtered;
        return false;
    }

    void
    reset()
    {
        for (auto &set : sets_) {
            set.entries.clear();
            set.overflowed = false;
        }
    }

    std::uint64_t invalidations = 0;
    std::uint64_t filtered = 0;
    std::uint64_t flushes = 0;
    std::uint64_t overflows = 0;

  private:
    struct Entry
    {
        bool valid = false;
        Asid asid = 0;
        Vpn vpn = kInvalidVpn;
        std::uint32_t count = 0;
    };

    struct Set
    {
        std::vector<Entry> entries;
        bool overflowed = false;
    };

    std::size_t
    setIndex(Asid asid, Vpn vpn) const
    {
        return std::size_t((vpn ^ (std::uint64_t(asid) << 20)) %
                           num_sets_);
    }

    unsigned assoc_;
    std::size_t num_sets_;
    std::vector<Set> sets_;
};

TEST(InvalidationFilter, EmptyFilterFiltersEverything)
{
    InvalidationFilter f;
    EXPECT_FALSE(f.maybePresent(0, 100));
    EXPECT_FALSE(f.onInvalidate(0, 100));
    EXPECT_EQ(f.invalidationsFiltered(), 1u);
}

TEST(InvalidationFilter, TrackedPageTriggersFlush)
{
    InvalidationFilter f;
    f.lineFilled(0, 100);
    EXPECT_TRUE(f.maybePresent(0, 100));
    EXPECT_TRUE(f.onInvalidate(0, 100));
    EXPECT_EQ(f.flushesTriggered(), 1u);
}

TEST(InvalidationFilter, CountsReachZeroOnEviction)
{
    InvalidationFilter f;
    f.lineFilled(0, 100);
    f.lineFilled(0, 100);
    f.lineEvicted(0, 100);
    EXPECT_TRUE(f.maybePresent(0, 100));
    f.lineEvicted(0, 100);
    EXPECT_FALSE(f.maybePresent(0, 100));
}

TEST(InvalidationFilter, AsidsAreDistinct)
{
    InvalidationFilter f;
    f.lineFilled(1, 100);
    EXPECT_TRUE(f.maybePresent(1, 100));
    EXPECT_FALSE(f.maybePresent(2, 100));
}

TEST(InvalidationFilter, ResetClearsEverything)
{
    InvalidationFilter f;
    f.lineFilled(0, 1);
    f.lineFilled(0, 2);
    f.reset();
    EXPECT_FALSE(f.maybePresent(0, 1));
    EXPECT_FALSE(f.maybePresent(0, 2));
}

TEST(InvalidationFilter, OverflowGoesConservative)
{
    // 1 set x 2 ways: the third distinct page overflows the set.
    InvalidationFilter f(2, 2);
    f.lineFilled(0, 1);
    f.lineFilled(0, 2);
    f.lineFilled(0, 3);
    EXPECT_GE(f.overflowEvents(), 1u);
    // After overflow every page looks possibly-present (safe).
    EXPECT_TRUE(f.maybePresent(0, 99));
    // A full flush restores precision.
    f.reset();
    EXPECT_FALSE(f.maybePresent(0, 99));
}

TEST(InvalidationFilter, NeverFalseNegative)
{
    // Property: any page with a filled-but-not-fully-evicted line must
    // report maybe-present, whatever the eviction interleaving.
    InvalidationFilter f(8, 2);
    Rng rng(42);
    std::map<Vpn, int> truth;
    for (int i = 0; i < 2000; ++i) {
        const Vpn vpn = rng.below(32);
        if (rng.chance(0.6)) {
            f.lineFilled(0, vpn);
            ++truth[vpn];
        } else if (truth[vpn] > 0) {
            f.lineEvicted(0, vpn);
            --truth[vpn];
        }
        for (const auto &[page, count] : truth) {
            if (count > 0) {
                ASSERT_TRUE(f.maybePresent(0, page));
            }
        }
    }
}

class FilterLockstep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

/**
 * Random fill, evict, invalidate and reset sequences over four ASIDs:
 * the flat filter answers maybePresent() and onInvalidate() exactly as
 * the reference does, and its four counters agree after every step.
 */
TEST_P(FilterLockstep, MatchesPerSetVectorReference)
{
    const auto [entries, assoc] = GetParam();
    InvalidationFilter f(entries, assoc);
    ReferenceFilter ref(entries, assoc);
    Rng rng(entries * 131 + assoc);
    std::map<std::pair<Asid, Vpn>, int> resident;
    for (int i = 0; i < 20000; ++i) {
        const Asid asid = Asid(rng.below(4));
        const Vpn vpn = rng.below(3 * entries);
        const auto op = rng.below(100);
        if (op < 45) {
            f.lineFilled(asid, vpn);
            ref.lineFilled(asid, vpn);
            ++resident[{asid, vpn}];
        } else if (op < 80) {
            // Mostly evict a page the L1 holds; sometimes any page.
            auto page = std::make_pair(asid, vpn);
            if (!resident.empty() && rng.chance(0.8)) {
                auto it = resident.begin();
                std::advance(it, rng.below(resident.size()));
                page = it->first;
            }
            f.lineEvicted(page.first, page.second);
            ref.lineEvicted(page.first, page.second);
            if (resident.count(page) && --resident[page] == 0)
                resident.erase(page);
        } else if (op < 99) {
            ASSERT_EQ(f.onInvalidate(asid, vpn), ref.onInvalidate(asid, vpn))
                << "invalidate divergence at step " << i;
        } else {
            f.reset();
            ref.reset();
            resident.clear();
        }
        ASSERT_EQ(f.maybePresent(asid, vpn), ref.maybePresent(asid, vpn))
            << "maybePresent divergence at step " << i;
        ASSERT_EQ(f.invalidationsSeen(), ref.invalidations);
        ASSERT_EQ(f.invalidationsFiltered(), ref.filtered);
        ASSERT_EQ(f.flushesTriggered(), ref.flushes);
        ASSERT_EQ(f.overflowEvents(), ref.overflows);
        if (i % 512 == 0) {
            for (Asid a = 0; a < 4; ++a)
                for (Vpn v = 0; v < 3 * entries; ++v)
                    ASSERT_EQ(f.maybePresent(a, v), ref.maybePresent(a, v))
                        << "sweep divergence at step " << i;
        }
    }
    EXPECT_GT(ref.overflows, 0u); // the overflow path was exercised
}

// The default 32 x 8, small sets that overflow often, and 12 and 3
// sets (not powers of two).
INSTANTIATE_TEST_SUITE_P(
    Geometries, FilterLockstep,
    ::testing::Values(std::make_tuple(256u, 8u), std::make_tuple(8u, 2u),
                      std::make_tuple(24u, 2u), std::make_tuple(6u, 2u)));

} // namespace
} // namespace gvc
