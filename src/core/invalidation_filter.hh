/**
 * @file
 * Per-L1 invalidation filter (§4.2).
 *
 * Modern GPU L1s cannot be probed, so when an FBT entry is evicted or a
 * shootdown arrives the IOMMU broadcasts an invalidation to every L1.
 * Each L1 keeps this small filter — virtual page number tag plus a
 * counter of resident lines from the page — so invalidations for pages
 * the L1 never cached are dropped, and a filter hit triggers a full L1
 * flush (the L1 is write-through-no-allocate, so flushing writes back
 * nothing).
 *
 * The filter is finite; displacing a nonzero-count entry would lose
 * inclusion information, so the filter sets a conservative overflow flag
 * instead, which makes every subsequent invalidation look like a hit
 * until the next full flush resets the filter.
 */

#ifndef GVC_CORE_INVALIDATION_FILTER_HH
#define GVC_CORE_INVALIDATION_FILTER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/set_index.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/** One CU's invalidation filter. */
class InvalidationFilter
{
  public:
    /**
     * @param entries  Total entries (§4.3 sizes ~1 KB per 32 KB L1;
     *                 with a ~4 B entry that is 256 entries).
     * @param assoc    Set associativity.
     */
    explicit InvalidationFilter(unsigned entries = 256, unsigned assoc = 8)
        : assoc_(assoc), set_of_(entries / assoc)
    {
        entries_.resize(set_of_.size() * assoc_);
        overflowed_.assign(set_of_.size(), 0);
    }

    /** The L1 filled a line of (asid, vpn). */
    void
    lineFilled(Asid asid, Vpn vpn)
    {
        const std::size_t set = setIndex(asid, vpn);
        Entry *const base = &entries_[set * assoc_];
        // One pass: a match wins, else the first free entry takes the
        // page; the set overflows only when every entry is live.
        Entry *free = nullptr;
        for (Entry *e = base; e != base + assoc_; ++e) {
            if (e->count == 0) {
                if (!free)
                    free = e;
            } else if (e->asid == asid && e->vpn == vpn) {
                ++e->count;
                return;
            }
        }
        if (free) {
            *free = Entry{vpn, asid, 1};
            return;
        }
        // Would displace live inclusion info: go conservative instead.
        overflowed_[set] = 1;
        ++overflows_;
    }

    /** The L1 evicted a line of (asid, vpn). */
    void
    lineEvicted(Asid asid, Vpn vpn)
    {
        const std::size_t i = find(setIndex(asid, vpn), asid, vpn);
        if (i != kNone)
            --entries_[i].count;
        // Untracked eviction is only legal once the set overflowed.
    }

    /**
     * Screen an invalidation request for (asid, vpn).
     * @return true when the L1 may hold lines of the page (flush needed).
     */
    bool
    maybePresent(Asid asid, Vpn vpn) const
    {
        const std::size_t set = setIndex(asid, vpn);
        return overflowed_[set] || find(set, asid, vpn) != kNone;
    }

    /** Process an invalidation; counts filtered vs. flush outcomes. */
    bool
    onInvalidate(Asid asid, Vpn vpn)
    {
        ++invalidations_;
        if (maybePresent(asid, vpn)) {
            ++flushes_;
            return true;
        }
        ++filtered_;
        return false;
    }

    /** The L1 was fully flushed: all counts reset, overflow cleared. */
    void
    reset()
    {
        std::fill(entries_.begin(), entries_.end(), Entry{});
        std::fill(overflowed_.begin(), overflowed_.end(), 0);
    }

    std::uint64_t invalidationsSeen() const { return invalidations_.value; }
    std::uint64_t invalidationsFiltered() const { return filtered_.value; }
    std::uint64_t flushesTriggered() const { return flushes_.value; }
    std::uint64_t overflowEvents() const { return overflows_.value; }

  private:
    /** A tracked page; count 0 marks a free entry. */
    struct Entry
    {
        Vpn vpn = kInvalidVpn;
        Asid asid = 0;
        std::uint32_t count = 0; ///< Resident L1 lines of the page.
    };

    std::size_t
    setIndex(Asid asid, Vpn vpn) const
    {
        return set_of_(vpn ^ (std::uint64_t(asid) << 20));
    }

    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Index of the live entry of (asid, vpn) in @p set, or kNone. */
    std::size_t
    find(std::size_t set, Asid asid, Vpn vpn) const
    {
        for (std::size_t i = set * assoc_; i < (set + 1) * assoc_; ++i) {
            const Entry &e = entries_[i];
            if (e.count != 0 && e.asid == asid && e.vpn == vpn)
                return i;
        }
        return kNone;
    }

    unsigned assoc_;
    SetIndex set_of_;
    /// Flat sets x assoc entries, set-major.
    std::vector<Entry> entries_;
    std::vector<std::uint8_t> overflowed_; ///< Per set.
    Counter invalidations_;
    Counter filtered_;
    Counter flushes_;
    Counter overflows_;
};

} // namespace gvc

#endif // GVC_CORE_INVALIDATION_FILTER_HH
