/**
 * @file
 * Dynamic synonym remapping table (§4.3 "Future GPU System Support").
 *
 * The paper notes that systems with more active synonyms can integrate
 * the dynamic synonym remapping of Yoon & Sohi [52]: once the FBT
 * detects a synonymous access, the (non-leading VA -> leading VA) pair
 * is cached in a small remapping table consulted *before* the L1
 * virtual cache.  Subsequent accesses through the non-leading name are
 * rewritten up front and hit the caches directly, avoiding the
 * miss-replay round trip per access.
 *
 * Entries are invalidated when their leading page leaves the FBT
 * (purge/shootdown), which the hierarchy drives via dropLeading().
 */

#ifndef GVC_CORE_SYNONYM_REMAP_HH
#define GVC_CORE_SYNONYM_REMAP_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/set_index.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/** Remapping target: the page's leading name. */
struct RemapTarget
{
    Asid leading_asid = 0;
    Vpn leading_vpn = kInvalidVpn;
};

/** Small set-associative (non-leading VA -> leading VA) cache. */
class SynonymRemapTable
{
  public:
    /** @param entries 0 disables the table entirely. */
    explicit SynonymRemapTable(unsigned entries = 0, unsigned assoc = 4)
        : assoc_(assoc ? assoc : 1)
    {
        if (entries == 0)
            return;
        set_of_ = SetIndex(entries / assoc_);
        sets_.resize(set_of_.size());
    }

    bool enabled() const { return !sets_.empty(); }

    /** Rewrite (asid, vpn) if a remapping is cached. */
    std::optional<RemapTarget>
    lookup(Asid asid, Vpn vpn)
    {
        if (!enabled())
            return std::nullopt;
        ++lookups_;
        auto &set = sets_[setIndex(asid, vpn)];
        for (auto &e : set) {
            if (e.valid && e.asid == asid && e.vpn == vpn) {
                ++hits_;
                e.lru = ++lru_clock_;
                return RemapTarget{e.leading_asid, e.leading_vpn};
            }
        }
        return std::nullopt;
    }

    /** Record a detected synonym (called from the FBT check path). */
    void
    insert(Asid asid, Vpn vpn, const RemapTarget &target)
    {
        if (!enabled())
            return;
        auto &set = sets_[setIndex(asid, vpn)];
        for (auto &e : set) {
            if (e.valid && e.asid == asid && e.vpn == vpn) {
                e.leading_asid = target.leading_asid;
                e.leading_vpn = target.leading_vpn;
                e.lru = ++lru_clock_;
                return;
            }
        }
        Entry fresh{true, asid, vpn, target.leading_asid,
                    target.leading_vpn, ++lru_clock_};
        if (set.size() < assoc_) {
            set.push_back(fresh);
            return;
        }
        std::size_t victim = 0;
        for (std::size_t i = 1; i < set.size(); ++i)
            if (set[i].lru < set[victim].lru)
                victim = i;
        set[victim] = fresh;
    }

    /** A leading page left the FBT: drop remappings that point at it. */
    void
    dropLeading(Asid leading_asid, Vpn leading_vpn)
    {
        if (!enabled())
            return;
        for (auto &set : sets_) {
            for (std::size_t i = set.size(); i-- > 0;) {
                if (set[i].valid &&
                    set[i].leading_asid == leading_asid &&
                    set[i].leading_vpn == leading_vpn) {
                    set.erase(set.begin() + long(i));
                    ++drops_;
                }
            }
        }
    }

    /** A non-leading page was shot down: drop its remapping. */
    void
    dropSource(Asid asid, Vpn vpn)
    {
        if (!enabled())
            return;
        auto &set = sets_[setIndex(asid, vpn)];
        for (std::size_t i = set.size(); i-- > 0;) {
            if (set[i].valid && set[i].asid == asid &&
                set[i].vpn == vpn) {
                set.erase(set.begin() + long(i));
                ++drops_;
            }
        }
    }

    /**
     * Drop every remapping (kernel-boundary FBT drop).  Also rewinds the
     * LRU clock so replacement decisions after the reset match a freshly
     * constructed table bit for bit.
     */
    void
    clear()
    {
        for (auto &set : sets_)
            set.clear();
        lru_clock_ = 0;
    }

    std::uint64_t lookups() const { return lookups_.value; }
    std::uint64_t hits() const { return hits_.value; }
    std::uint64_t drops() const { return drops_.value; }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

  private:
    struct Entry
    {
        bool valid = false;
        Asid asid = 0;
        Vpn vpn = kInvalidVpn;
        Asid leading_asid = 0;
        Vpn leading_vpn = kInvalidVpn;
        std::uint64_t lru = 0;
    };

    std::size_t
    setIndex(Asid asid, Vpn vpn) const
    {
        return set_of_(vpn ^ (std::uint64_t(asid) << 16));
    }

    unsigned assoc_;
    SetIndex set_of_;
    std::vector<std::vector<Entry>> sets_;
    std::uint64_t lru_clock_ = 0;
    Counter lookups_;
    Counter hits_;
    Counter drops_;
};

} // namespace gvc

#endif // GVC_CORE_SYNONYM_REMAP_HH
