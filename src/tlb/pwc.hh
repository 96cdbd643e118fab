/**
 * @file
 * Page-walk cache: a small physical cache over page-table entries that
 * lets the walker skip memory accesses for recently-used upper levels
 * (Table 1: 8 KB).  Modeled as a set-associative cache of 64 B page-table
 * lines, which captures the strong spatial locality of PTE accesses.
 *
 * The PWC is inherently a *reach* structure: each cached line holds
 * kPtesPerLine (8) adjacent PTEs, so one entry at the PT level covers a
 * naturally-aligned 8-page (32 KB) subregion — which is exactly why the
 * IOMMU's coalesced-fill probe defaults to reach 3 (2^3 pages = one PTE
 * line): the walker has already paid for every PTE the probe inspects.
 * Entries are keyed by PTE line address, making them (base, reach)
 * descriptors over the page-table address space; invalidation is
 * whole-cache on page-table modification, which is trivially
 * reach-precise.
 */

#ifndef GVC_TLB_PWC_HH
#define GVC_TLB_PWC_HH

#include <cstdint>
#include <vector>

#include "sim/set_index.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/** Cache of page-table lines keyed by PTE physical address. */
class PageWalkCache
{
  public:
    /** PTEs per cached line: one line spans 8 adjacent translations. */
    static constexpr unsigned kPtesPerLine = 8;

    /**
     * @param capacity_bytes  Total capacity (paper: 8 KB).
     * @param assoc           Set associativity.
     */
    explicit PageWalkCache(std::uint64_t capacity_bytes = 8 * 1024,
                           unsigned assoc = 8)
    {
        const std::uint64_t lines = capacity_bytes / kPtLineBytes;
        set_of_ = SetIndex(lines / assoc);
        assoc_ = unsigned(lines / set_of_.size());
        sets_.resize(set_of_.size());
    }

    /** Look up the line containing @p pte_addr; true on hit. */
    bool
    lookup(Paddr pte_addr)
    {
        ++accesses_;
        const std::uint64_t tag = lineTag(pte_addr);
        auto &set = sets_[set_of_(tag)];
        for (auto &e : set) {
            if (e.tag == tag) {
                ++hits_;
                e.lru = ++lru_clock_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    /** Install the line containing @p pte_addr. */
    void
    insert(Paddr pte_addr)
    {
        const std::uint64_t tag = lineTag(pte_addr);
        auto &set = sets_[set_of_(tag)];
        for (auto &e : set)
            if (e.tag == tag)
                return;
        if (set.size() < assoc_) {
            set.push_back({tag, ++lru_clock_});
            return;
        }
        std::size_t victim = 0;
        for (std::size_t i = 1; i < set.size(); ++i)
            if (set[i].lru < set[victim].lru)
                victim = i;
        set[victim] = {tag, ++lru_clock_};
    }

    /** Drop everything (page-table modification). */
    void
    invalidateAll()
    {
        for (auto &set : sets_)
            set.clear();
    }

    std::uint64_t accesses() const { return accesses_.value; }
    std::uint64_t hits() const { return hits_.value; }

    double
    hitRatio() const
    {
        return accesses_.value
            ? double(hits_.value) / double(accesses_.value)
            : 0.0;
    }

  private:
    /** Page-table line granularity (kPtesPerLine PTEs of 8 bytes). */
    static constexpr std::uint64_t kPtLineBytes = kPtesPerLine * 8;

    struct Entry
    {
        std::uint64_t tag;
        std::uint64_t lru;
    };

    static std::uint64_t
    lineTag(Paddr pte_addr)
    {
        return pte_addr / kPtLineBytes;
    }

    SetIndex set_of_;
    unsigned assoc_ = 8;
    std::vector<std::vector<Entry>> sets_;
    std::uint64_t lru_clock_ = 0;
    Counter accesses_;
    Counter hits_;
    Counter misses_;
};

} // namespace gvc

#endif // GVC_TLB_PWC_HH
