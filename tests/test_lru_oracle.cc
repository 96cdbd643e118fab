/**
 * @file
 * Oracle-based property tests: CacheArray and Tlb are checked against
 * straightforward reference models (ordered-list LRU per set) under
 * long random operation sequences.  Any divergence in hit/miss
 * behaviour or eviction choice fails the test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <tuple>

#include "cache/cache_array.hh"
#include "sim/rng.hh"
#include "tlb/tlb.hh"

namespace gvc
{
namespace
{

/**
 * Reference set-associative LRU.  Entries are (key, asid) pairs; the
 * set is key % sets, so the ASID takes part in the match only, as in
 * the ASID-extended virtual tags.
 */
class LruOracle
{
  public:
    using Entry = std::pair<std::uint64_t, Asid>;

    LruOracle(std::size_t sets, unsigned assoc)
        : sets_(sets), assoc_(assoc), lists_(sets)
    {
    }

    bool
    access(std::uint64_t key, Asid asid = 0)
    {
        auto &l = lists_[key % sets_];
        for (auto it = l.begin(); it != l.end(); ++it) {
            if (*it == Entry{key, asid}) {
                l.erase(it);
                l.push_front(Entry{key, asid});
                return true;
            }
        }
        return false;
    }

    /** Insert; returns the evicted entry if any. */
    std::optional<Entry>
    insert(std::uint64_t key, Asid asid = 0)
    {
        if (access(key, asid))
            return std::nullopt;
        auto &l = lists_[key % sets_];
        std::optional<Entry> victim;
        if (l.size() >= assoc_) {
            victim = l.back();
            l.pop_back();
        }
        l.push_front(Entry{key, asid});
        return victim;
    }

    bool
    present(std::uint64_t key, Asid asid = 0) const
    {
        const auto &l = lists_[key % sets_];
        return std::find(l.begin(), l.end(), Entry{key, asid}) != l.end();
    }

    void
    erase(std::uint64_t key, Asid asid = 0)
    {
        lists_[key % sets_].remove(Entry{key, asid});
    }

  private:
    std::size_t sets_;
    unsigned assoc_;
    std::vector<std::list<Entry>> lists_;
};

class CacheOracle : public ::testing::TestWithParam<
                        std::tuple<unsigned, unsigned, std::uint64_t>>
{
};

/**
 * Every CacheArray entry point in lockstep with the reference LRU, over
 * two ASIDs: access(), the one-probe lookup() + recordHit()/recordMiss()
 * pair, insert(), insertIfAbsent() and invalidateLine().  Hit/miss
 * outcomes, victim choice, residency and every counter must agree.
 */
TEST_P(CacheOracle, MatchesReferenceLru)
{
    const auto [kb, assoc, seed] = GetParam();
    CacheParams p;
    p.size_bytes = kb * 1024ull;
    p.assoc = assoc;
    p.write_back = true;
    CacheArray cache(p);
    LruOracle oracle(cache.numSets(), cache.assoc());
    Rng rng(seed);
    std::uint64_t accesses = 0, hits = 0, fills = 0, evictions = 0;

    auto check_victim = [&](const std::optional<CacheLineInfo> &victim,
                            const std::optional<LruOracle::Entry> &ref,
                            int step) {
        ASSERT_EQ(victim.has_value(), ref.has_value())
            << "eviction divergence at step " << step;
        if (victim) {
            ++evictions;
            ASSERT_EQ(victim->line_addr / kLineSize, ref->first)
                << "victim choice divergence at step " << step;
            ASSERT_EQ(victim->asid, ref->second)
                << "victim ASID divergence at step " << step;
        }
    };

    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t line = rng.below(2048);
        const Asid asid = Asid(rng.below(2));
        const std::uint64_t addr = line * kLineSize;
        const auto op = rng.below(12);
        if (op < 4) {
            const bool hit = cache.access(asid, addr, rng.chance(0.3),
                                          Tick(i));
            ++accesses;
            hits += hit;
            ASSERT_EQ(hit, oracle.access(line, asid))
                << "access divergence at step " << i;
        } else if (op < 6) {
            const auto way = cache.lookup(asid, addr);
            const bool write = rng.chance(0.3);
            ASSERT_EQ(way.has_value(), oracle.access(line, asid))
                << "lookup divergence at step " << i;
            ++accesses;
            if (way) {
                ASSERT_EQ(way->perms, kPermRead);
                cache.recordHit(*way, write, Tick(i));
                ++hits;
            } else {
                cache.recordMiss(write);
            }
        } else if (op < 9) {
            const auto victim =
                cache.insert(asid, addr, kPermRead, false, Tick(i));
            ++fills;
            check_victim(victim, oracle.insert(line, asid), i);
        } else if (op < 11) {
            const bool resident = oracle.present(line, asid);
            const CacheFill fill = cache.insertIfAbsent(
                asid, addr, kPermRead, false, Tick(i));
            ASSERT_EQ(fill.inserted, !resident)
                << "insert-if-absent divergence at step " << i;
            if (fill.inserted) {
                ++fills;
                check_victim(fill.victim, oracle.insert(line, asid), i);
            } else {
                // A resident line is left exactly as it was, recency too.
                ASSERT_FALSE(fill.victim.has_value());
            }
        } else {
            cache.invalidateLine(asid, addr);
            oracle.erase(line, asid);
        }
        if (i % 1024 == 0) {
            // Periodic full cross-check of residency.
            for (std::uint64_t l = 0; l < 64; ++l)
                for (Asid a = 0; a < 2; ++a)
                    ASSERT_EQ(cache.present(a, l * kLineSize),
                              oracle.present(l, a));
        }
    }
    EXPECT_EQ(cache.accesses(), accesses);
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), accesses - hits);
    EXPECT_EQ(cache.fills(), fills);
    EXPECT_EQ(cache.evictions(), evictions);
}

// The last two have 24 and 48 sets: SetIndex's modulo fallback.
INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheOracle,
    ::testing::Values(std::make_tuple(4u, 2u, 1ull),
                      std::make_tuple(8u, 4u, 2ull),
                      std::make_tuple(32u, 8u, 3ull),
                      std::make_tuple(16u, 16u, 4ull),
                      std::make_tuple(12u, 4u, 5ull),
                      std::make_tuple(48u, 8u, 6ull)));

class TlbOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(TlbOracle, MatchesReferenceLru)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(TlbParams{entries, assoc, false, false});
    LruOracle oracle(tlb.numSets(), tlb.assoc());
    Rng rng(entries * 31 + assoc);

    for (int i = 0; i < 20000; ++i) {
        const Vpn vpn = rng.below(1024);
        const auto op = rng.below(10);
        if (op < 5) {
            const bool hit =
                tlb.lookup(0, vpn, Tick(i)).has_value();
            ASSERT_EQ(hit, oracle.access(vpn))
                << "lookup divergence at step " << i;
        } else if (op < 9) {
            tlb.insert(0, vpn, TlbLookup{vpn, kPermRead, false},
                       Tick(i));
            oracle.insert(vpn);
        } else {
            tlb.invalidatePage(0, vpn);
            oracle.erase(vpn);
        }
        if (i % 2048 == 0) {
            for (Vpn v = 0; v < 64; ++v)
                ASSERT_EQ(tlb.present(0, v), oracle.present(v));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TlbOracle,
    ::testing::Values(std::make_tuple(32u, 0u),
                      std::make_tuple(32u, 4u),
                      std::make_tuple(128u, 8u),
                      std::make_tuple(64u, 2u),
                      std::make_tuple(48u, 4u))); // 12 sets

} // namespace
} // namespace gvc
