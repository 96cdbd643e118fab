/**
 * @file
 * Generic set-associative cache array with true-LRU replacement.
 *
 * The same array backs physical caches (tag = physical line address) and
 * virtual caches (tag = virtual line address + ASID, with per-line
 * permissions, as required by the paper's design).  Timing lives in the
 * hierarchy controllers; this class is the functional state plus
 * statistics and lifetime tracking (Figure 12).
 */

#ifndef GVC_CACHE_CACHE_ARRAY_HH
#define GVC_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/set_index.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/** Cache geometry and policy configuration. */
struct CacheParams
{
    std::uint64_t size_bytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned line_bytes = unsigned(kLineSize);
    /** Write-back (true) or write-through (false). */
    bool write_back = false;
    /** Allocate on write miss. */
    bool write_allocate = false;
    /** Record per-line active lifetimes (insert -> last access). */
    bool track_lifetimes = false;
};

/** Metadata of a resident line, returned on eviction. */
struct CacheLineInfo
{
    Asid asid = 0;
    std::uint64_t line_addr = kInvalidAddr; ///< Line-aligned tag address.
    Perms perms = kPermNone;
    bool dirty = false;
};

/** Outcome of CacheArray::insertIfAbsent(). */
struct CacheFill
{
    bool inserted = false; ///< False: the line was already resident.
    std::optional<CacheLineInfo> victim; ///< Displaced line, if any.
};

/**
 * The array.  Addresses are line-aligned by callers' convention but the
 * array aligns defensively.  ASID participates in tag match only (not in
 * indexing), which is what the paper's ASID-extended virtual tags do.
 *
 * Every operation on one line scans its set once.  A caller that must
 * decide on the line's permissions before counting the access (the
 * virtual caches) probes with lookup() and then books the outcome with
 * recordHit() or recordMiss(); access() is that pair in one call.
 */
class CacheArray
{
  public:
    /** A resident line found by lookup(); stale once the array changes. */
    struct Way
    {
        std::size_t slot; ///< Index into the flat way storage.
        Perms perms;
    };

    explicit CacheArray(const CacheParams &params)
        : params_(params)
    {
        const unsigned lb = params.line_bytes;
        if (lb == 0 || (lb & (lb - 1)) != 0)
            fatal("CacheArray: line size must be a power of two");
        line_shift_ = unsigned(__builtin_ctz(lb));
        const std::uint64_t lines = params.size_bytes >> line_shift_;
        if (lines == 0)
            fatal("CacheArray: size smaller than one line");
        unsigned assoc = params.assoc ? params.assoc : 1;
        if (assoc > lines)
            assoc = unsigned(lines);
        const std::uint64_t num_sets = lines / assoc;
        sets_ = SetIndex(num_sets);
        assoc_ = unsigned(lines / num_sets);
        lines_.resize(num_sets * assoc_);
    }

    /**
     * Access a line.  On hit, recency (and dirtiness for write-back
     * writes) are updated.  Write-through writes never dirty the line.
     * @return true on hit.
     */
    bool
    access(Asid asid, std::uint64_t addr, bool is_write, Tick now)
    {
        if (const auto way = lookup(asid, addr)) {
            recordHit(*way, is_write, now);
            return true;
        }
        recordMiss(is_write);
        return false;
    }

    /** The way holding (asid, addr), if resident.  Counts nothing. */
    std::optional<Way>
    lookup(Asid asid, std::uint64_t addr) const
    {
        const std::size_t slot = find(asid, lineKey(addr));
        if (slot == kNoWay)
            return std::nullopt;
        return Way{slot, lines_[slot].perms};
    }

    /** Book a hit on @p way found by lookup(): access() without the scan. */
    void
    recordHit(const Way &way, bool is_write, Tick now)
    {
        ++accesses_;
        if (is_write)
            ++writes_;
        ++hits_;
        Line &l = lines_[way.slot];
        l.last_used = now;
        l.lru = ++lru_clock_;
        if (is_write && params_.write_back)
            l.dirty = true;
    }

    /** Book a miss: access() of a line lookup() did not find. */
    void
    recordMiss(bool is_write)
    {
        ++accesses_;
        if (is_write)
            ++writes_;
        ++misses_;
    }

    /** Side-effect-free presence probe (Figure 2 classification). */
    bool
    present(Asid asid, std::uint64_t addr) const
    {
        return lookup(asid, addr).has_value();
    }

    /** Permissions of a resident line (virtual caches check these). */
    std::optional<Perms>
    linePerms(Asid asid, std::uint64_t addr) const
    {
        if (const auto way = lookup(asid, addr))
            return way->perms;
        return std::nullopt;
    }

    /**
     * Install a line, evicting the LRU way if needed.  A resident line
     * takes the new permissions and recency instead.
     * @return metadata of the displaced line, if any (for writebacks and
     *         FBT bit-vector maintenance).
     */
    std::optional<CacheLineInfo>
    insert(Asid asid, std::uint64_t addr, Perms perms, bool dirty,
           Tick now)
    {
        return fill(asid, addr, perms, dirty, now, /*refresh=*/true).victim;
    }

    /**
     * Install a line unless it is already resident, in which case
     * nothing changes and no fill is counted (a racing fill landed
     * first).  One set scan, where present() then insert() takes two.
     */
    CacheFill
    insertIfAbsent(Asid asid, std::uint64_t addr, Perms perms, bool dirty,
                   Tick now)
    {
        return fill(asid, addr, perms, dirty, now, /*refresh=*/false);
    }

    /** Invalidate the line lookup() found.  @return its metadata. */
    CacheLineInfo
    invalidate(const Way &way)
    {
        const CacheLineInfo info = retire(lines_[way.slot]);
        lines_[way.slot].valid = false;
        ++invalidations_;
        return info;
    }

    /** Invalidate one line.  @return its metadata if it was present. */
    std::optional<CacheLineInfo>
    invalidateLine(Asid asid, std::uint64_t addr)
    {
        if (const auto way = lookup(asid, addr))
            return invalidate(*way);
        return std::nullopt;
    }

    /**
     * Invalidate every line belonging to one 4 KB page of one address
     * space.  @p on_evict receives each line (writeback decisions).
     * @return number of lines invalidated.
     */
    unsigned
    invalidatePage(Asid asid, std::uint64_t page_base_addr,
                   const std::function<void(const CacheLineInfo &)>
                       &on_evict = {})
    {
        unsigned count = 0;
        for (unsigned i = 0; i < kLinesPerPage; ++i) {
            const std::uint64_t addr =
                page_base_addr + std::uint64_t(i) * params_.line_bytes;
            if (auto info = invalidateLine(asid, addr)) {
                ++count;
                if (on_evict)
                    on_evict(*info);
            }
        }
        return count;
    }

    /**
     * Invalidate every line belonging to one address space (per-ASID
     * shootdown); @p on_evict sees each dropped line.
     * @return number of lines invalidated.
     */
    unsigned
    invalidateAsid(Asid asid,
                   const std::function<void(const CacheLineInfo &)>
                       &on_evict = {})
    {
        unsigned count = 0;
        for (std::size_t slot = 0; slot < lines_.size(); ++slot) {
            if (!lines_[slot].valid || lines_[slot].asid != asid)
                continue;
            const CacheLineInfo info = invalidate(Way{slot, kPermNone});
            ++count;
            if (on_evict)
                on_evict(info);
        }
        return count;
    }

    /** Invalidate the entire array; @p on_evict sees every line. */
    void
    invalidateAll(const std::function<void(const CacheLineInfo &)>
                      &on_evict = {})
    {
        for (std::size_t slot = 0; slot < lines_.size(); ++slot) {
            if (!lines_[slot].valid)
                continue;
            const CacheLineInfo info = invalidate(Way{slot, kPermNone});
            if (on_evict)
                on_evict(info);
        }
    }

    /** Visit every resident line (tests, end-of-run lifetime flush). */
    void
    forEachLine(const std::function<void(const CacheLineInfo &)> &fn) const
    {
        for (const Line &l : lines_)
            if (l.valid)
                fn(lineInfo(l));
    }

    /** Record lifetimes of still-resident lines (simulation end). */
    void
    flushLifetimes()
    {
        if (!params_.track_lifetimes)
            return;
        for (const Line &l : lines_)
            if (l.valid && l.last_used > l.inserted)
                lifetimes_.record(l.last_used - l.inserted);
    }

    std::uint64_t accesses() const { return accesses_.value; }
    std::uint64_t hits() const { return hits_.value; }
    std::uint64_t misses() const { return misses_.value; }
    std::uint64_t fills() const { return fills_.value; }
    std::uint64_t evictions() const { return evictions_.value; }
    std::uint64_t invalidations() const { return invalidations_.value; }

    void
    stats(StatSink &s) const
    {
        s("accesses", accesses_);
        s("hits", hits_);
    }

    const LifetimeRecorder &lifetimes() const { return lifetimes_; }
    std::size_t numSets() const { return std::size_t(sets_.size()); }
    unsigned assoc() const { return assoc_; }

    std::size_t
    residentLines() const
    {
        std::size_t n = 0;
        for (const Line &l : lines_)
            n += l.valid ? 1 : 0;
        return n;
    }

  private:
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    struct Line
    {
        bool valid = false;
        Asid asid = 0;
        std::uint64_t key = 0; ///< addr >> line shift.
        Perms perms = kPermNone;
        bool dirty = false;
        Tick inserted = 0;
        Tick last_used = 0;
        std::uint64_t lru = 0;
    };

    std::uint64_t lineKey(std::uint64_t addr) const
    {
        return addr >> line_shift_;
    }

    std::uint64_t unKey(std::uint64_t key) const
    {
        return key << line_shift_;
    }

    std::size_t setBase(std::uint64_t key) const
    {
        return sets_(key) * assoc_;
    }

    std::size_t
    find(Asid asid, std::uint64_t key) const
    {
        const std::size_t base = setBase(key);
        for (std::size_t slot = base; slot < base + assoc_; ++slot) {
            const Line &l = lines_[slot];
            if (l.valid && l.asid == asid && l.key == key)
                return slot;
        }
        return kNoWay;
    }

    /**
     * insert() (@p refresh: a resident line takes the new permissions
     * and recency, and counts as a fill) and insertIfAbsent() (a
     * resident line is left alone).  One set scan finds the line or
     * notes the first invalid way, which a miss fills before it
     * displaces the true-LRU way.
     */
    CacheFill
    fill(Asid asid, std::uint64_t addr, Perms perms, bool dirty, Tick now,
         bool refresh)
    {
        const std::uint64_t key = lineKey(addr);
        Line *const base = lines_.data() + setBase(key);
        unsigned free_way = assoc_;
        for (unsigned i = 0; i < assoc_; ++i) {
            Line &l = base[i];
            if (!l.valid) {
                if (free_way == assoc_)
                    free_way = i;
            } else if (l.asid == asid && l.key == key) {
                if (refresh) {
                    ++fills_;
                    l.perms = perms;
                    l.dirty = l.dirty || dirty;
                    l.lru = ++lru_clock_;
                    l.last_used = now;
                }
                return CacheFill{};
            }
        }
        ++fills_;
        const Line fresh{true, asid, key, perms, dirty, now, now,
                         ++lru_clock_};
        if (free_way < assoc_) {
            base[free_way] = fresh;
            return CacheFill{true, std::nullopt};
        }
        unsigned victim = 0;
        for (unsigned i = 1; i < assoc_; ++i)
            if (base[i].lru < base[victim].lru)
                victim = i;
        CacheFill out{true, retire(base[victim])};
        base[victim] = fresh;
        ++evictions_;
        return out;
    }

    CacheLineInfo
    lineInfo(const Line &l) const
    {
        return CacheLineInfo{l.asid, unKey(l.key), l.perms, l.dirty};
    }

    /** Common retirement bookkeeping; returns the line's metadata. */
    CacheLineInfo
    retire(const Line &l)
    {
        if (params_.track_lifetimes && l.last_used > l.inserted)
            lifetimes_.record(l.last_used - l.inserted);
        return lineInfo(l);
    }

    CacheParams params_;
    unsigned line_shift_ = 0;
    SetIndex sets_;
    unsigned assoc_ = 1;
    /// Flat num_sets x assoc way storage, set-major: a set scan is one
    /// contiguous stride.  Invalid ways are free; a fill takes the first.
    std::vector<Line> lines_;
    std::uint64_t lru_clock_ = 0;

    Counter accesses_;
    Counter writes_;
    Counter hits_;
    Counter misses_;
    Counter fills_;
    Counter evictions_;
    Counter invalidations_;
    LifetimeRecorder lifetimes_;
};

} // namespace gvc

#endif // GVC_CACHE_CACHE_ARRAY_HH
