/**
 * @file
 * Forward-Backward Table (FBT) — the structure the paper adds to the
 * IOMMU to make a whole-hierarchy GPU virtual cache practical (§4).
 *
 * The backward table (BT) is a reverse-translation table indexed by
 * physical page number.  Each valid entry pins the page's unique
 * *leading* virtual address (the first VA used to touch the page while
 * its data resides in the virtual caches), the page permissions, a
 * 32-bit line bit-vector tracking which lines of the page are resident
 * in the shared virtual L2 (4 KB pages @ 128 B lines), and a written bit
 * used to detect read-write synonyms.  2 MB pages use a line counter
 * instead of a bit-vector, or are split into 4 KB subpage entries when
 * the split optimization is enabled (§4.3).
 *
 * The forward table (FT) maps (ASID, leading VPN) to the BT entry so the
 * FBT can be consulted by virtual address: on L2 line evictions, TLB
 * shootdowns, coherence responses, and — the "With OPT" design — as a
 * large second-level TLB behind the small shared IOMMU TLB.
 *
 * Invariant maintained here and relied on by the hierarchy: valid BT
 * entries and valid FT entries are in bijection.  Evicting either side
 * of the pair invalidates both and reports the page so the caches can be
 * purged (the FBT is fully inclusive of the GPU caches).
 */

#ifndef GVC_CORE_FBT_HH
#define GVC_CORE_FBT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "sim/set_index.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "tlb/tlb.hh"

namespace gvc
{

/** FBT configuration (§4.3: 16K entries ≈ 64 MB reach). */
struct FbtParams
{
    unsigned entries = 16 * 1024;
    unsigned bt_assoc = 8;
    unsigned ft_assoc = 8;
    /** Break 2 MB pages into 4 KB subpage entries (§4.3 optimization). */
    bool split_large_pages = true;
};

/**
 * A page that was displaced from the FBT and must therefore be purged
 * from the virtual caches (bit-vector of L2-resident lines included so
 * invalidation can be selective).
 */
struct FbtEvictedPage
{
    Asid asid = 0;
    Vpn leading_vpn = kInvalidVpn;
    Ppn ppn = kInvalidPpn;
    std::uint32_t line_bits = 0;
    bool large = false;
    std::uint32_t line_count = 0; ///< Counter-mode residency (large pages).
};

/** Outcome of the BT synonym check performed on every L2 miss (§4.1). */
struct SynonymCheck
{
    enum class Kind : std::uint8_t {
        kNewLeading,   ///< No entry existed; the given VA is now leading.
        kLeadingMatch, ///< Entry exists and the given VA is the leader.
        kSynonym,      ///< Read-only synonym: replay with the leading VA.
        kRwFault,      ///< Read-write synonym: conservative fault (§4.2).
    };

    Kind kind = Kind::kNewLeading;
    Asid leading_asid = 0;
    Vpn leading_vpn = kInvalidVpn;
    /** Bit-vector state for the requested line (L2 residency). */
    bool line_cached = false;
    /** Pages displaced to make room (cache purges required). */
    std::vector<FbtEvictedPage> victims;
};

/** Result of a reverse (physical -> leading virtual) lookup. */
struct ReverseLookup
{
    bool present = false;
    Asid asid = 0;
    Vpn leading_vpn = kInvalidVpn;
    bool line_cached = false;
};

/** The FBT. */
class Fbt
{
  public:
    explicit Fbt(const FbtParams &params = {})
        : params_(params)
    {
        if (params_.entries == 0)
            fatal("Fbt: entries must be nonzero");
        bt_set_of_ = SetIndex(params_.entries / params_.bt_assoc);
        ft_set_of_ = SetIndex(params_.entries / params_.ft_assoc);
        bt_.resize(params_.entries);
        ft_.resize(params_.entries);
    }

    // ---------------------------------------------------------------
    // L2-miss path (§4.1 "Synonym Detection and Management")
    // ---------------------------------------------------------------

    /**
     * Consult the BT with the translated PPN of an L2 virtual-cache
     * miss.  Allocates a new entry (given VA becomes leading) when none
     * exists; detects synonyms otherwise.  Displaced pages are reported
     * in the result for cache purging.
     *
     * @param asid       Requesting address space.
     * @param vpn        VPN the access used.
     * @param ppn        Translated PPN (from shared TLB or PTW).
     * @param page_perms Page permissions from the translation.
     * @param line_idx   Line-in-page index of the access (0..31).
     * @param is_write   The access is a store.
     */
    SynonymCheck
    onCacheMiss(Asid asid, Vpn vpn, Ppn ppn, Perms page_perms,
                unsigned line_idx, bool is_write)
    {
        ++bt_lookups_;
        SynonymCheck out;
        if (BtEntry *e = findBt(ppn)) {
            touchBt(*e);
            if (e->asid == asid && e->leading_vpn == vpn) {
                out.kind = SynonymCheck::Kind::kLeadingMatch;
                out.leading_asid = e->asid;
                out.leading_vpn = e->leading_vpn;
                out.line_cached = lineCached(*e, line_idx);
                if (is_write)
                    e->written = true;
                return out;
            }
            // A synonym: same physical page, different virtual name.
            ++synonym_accesses_;
            GVC_DPRINTF(kFbt, 0,
                        "synonym ppn=%#llx: (%u,%#llx) vs leading "
                        "(%u,%#llx)%s",
                        (unsigned long long)ppn, unsigned(asid),
                        (unsigned long long)vpn, unsigned(e->asid),
                        (unsigned long long)e->leading_vpn,
                        (e->written || is_write) ? " [RW FAULT]" : "");
            if (e->written || is_write) {
                ++rw_faults_;
                out.kind = SynonymCheck::Kind::kRwFault;
                out.leading_asid = e->asid;
                out.leading_vpn = e->leading_vpn;
                return out;
            }
            out.kind = SynonymCheck::Kind::kSynonym;
            out.leading_asid = e->asid;
            out.leading_vpn = e->leading_vpn;
            out.line_cached = lineCached(*e, line_idx);
            return out;
        }

        // No entry: the given VA becomes the page's leading VA.
        out.kind = SynonymCheck::Kind::kNewLeading;
        out.leading_asid = asid;
        out.leading_vpn = vpn;
        out.line_cached = false;
        allocate(asid, vpn, ppn, page_perms, is_write, /*large=*/false,
                 out.victims);
        return out;
    }

    /**
     * Allocate (or refresh) an entry for a 2 MB page in counter mode.
     * With split_large_pages the caller should instead call
     * onCacheMiss() per 4 KB subpage; this entry point exists for the
     * non-split configuration and its tests.
     */
    SynonymCheck
    onCacheMissLarge(Asid asid, Vpn large_vpn_base, Ppn large_ppn_base,
                     Perms page_perms, bool is_write)
    {
        ++bt_lookups_;
        SynonymCheck out;
        if (BtEntry *e = findBt(large_ppn_base)) {
            touchBt(*e);
            if (e->asid == asid && e->leading_vpn == large_vpn_base) {
                out.kind = SynonymCheck::Kind::kLeadingMatch;
            } else {
                ++synonym_accesses_;
                out.kind = (e->written || is_write)
                               ? SynonymCheck::Kind::kRwFault
                               : SynonymCheck::Kind::kSynonym;
            }
            out.leading_asid = e->asid;
            out.leading_vpn = e->leading_vpn;
            out.line_cached = e->line_count > 0;
            if (out.kind == SynonymCheck::Kind::kLeadingMatch && is_write)
                e->written = true;
            if (out.kind == SynonymCheck::Kind::kRwFault)
                ++rw_faults_;
            return out;
        }
        out.kind = SynonymCheck::Kind::kNewLeading;
        out.leading_asid = asid;
        out.leading_vpn = large_vpn_base;
        allocate(asid, large_vpn_base, large_ppn_base, page_perms,
                 is_write, /*large=*/true, out.victims);
        return out;
    }

    // ---------------------------------------------------------------
    // Forward lookups (FT)
    // ---------------------------------------------------------------

    /**
     * FBT-as-second-level-TLB lookup ("With OPT", §5.2): forward
     * translation for (asid, vpn) when it is a leading VA with a valid
     * entry.
     */
    std::optional<TlbLookup>
    forwardLookup(Asid asid, Vpn vpn)
    {
        ++ft_lookups_;
        if (const FtEntry *f = findFt(asid, vpn)) {
            ++ft_hits_;
            const BtEntry &e = bt_[f->bt_index];
            return TlbLookup{e.ppn, e.perms, e.large};
        }
        return std::nullopt;
    }

    /** True when (asid, vpn) is covered by a live leading entry —
     *  either its own 4 KB entry or a counter-mode 2 MB entry. */
    bool
    hasLeading(Asid asid, Vpn vpn) const
    {
        return const_cast<Fbt *>(this)->btOfLeading(asid, vpn) !=
               nullptr;
    }

    // ---------------------------------------------------------------
    // Bit-vector maintenance (L2 fills and evictions)
    // ---------------------------------------------------------------

    /** An L2 fill of line @p line_idx of the page led by (asid, vpn). */
    void
    lineFilled(Asid asid, Vpn vpn, unsigned line_idx)
    {
        BtEntry *e = btOfLeading(asid, vpn);
        if (!e)
            panic("Fbt::lineFilled: fill for page without FBT entry");
        if (e->large) {
            ++e->line_count;
        } else {
            e->line_bits |= (std::uint32_t{1} << line_idx);
        }
    }

    /** An L2 eviction of line @p line_idx of the page led by (asid,vpn).
     *  Consults the FT to find the BT entry (§4.1 "Eviction of Virtual
     *  Cache Lines"). */
    void
    lineEvicted(Asid asid, Vpn vpn, unsigned line_idx)
    {
        BtEntry *e = btOfLeading(asid, vpn);
        if (!e)
            return; // the entry itself was just purged
        if (e->large) {
            if (e->line_count > 0)
                --e->line_count;
        } else {
            e->line_bits &= ~(std::uint32_t{1} << line_idx);
        }
    }

    /** Record a write reaching the L2 for the page led by (asid,vpn). */
    void
    markWritten(Asid asid, Vpn vpn)
    {
        if (BtEntry *e = btOfLeading(asid, vpn))
            e->written = true;
    }

    // ---------------------------------------------------------------
    // Reverse lookups (coherence requests from the CPU/directory)
    // ---------------------------------------------------------------

    /**
     * Reverse-translate a physical line for an external coherence probe.
     * A miss means the GPU caches cannot hold the line: the probe is
     * filtered (§4.1 "Cache Coherence", the region-buffer-like filter).
     */
    ReverseLookup
    reverseLookup(Ppn ppn, unsigned line_idx)
    {
        ++reverse_lookups_;
        if (BtEntry *e = findBt(ppn)) {
            ReverseLookup r;
            r.present = true;
            r.asid = e->asid;
            r.leading_vpn = e->leading_vpn;
            r.line_cached = lineCached(*e, line_idx);
            return r;
        }
        ++probes_filtered_;
        return ReverseLookup{};
    }

    // ---------------------------------------------------------------
    // Shootdowns and explicit invalidation (§4.1)
    // ---------------------------------------------------------------

    /**
     * Single-entry TLB shootdown by virtual address: the FT locates the
     * BT entry; no match filters the shootdown entirely.
     * @return the purged page when an entry existed.
     */
    std::optional<FbtEvictedPage>
    shootdownPage(Asid asid, Vpn vpn)
    {
        ++shootdowns_;
        FtEntry *f = findFtMutable(asid, vpn);
        if (!f) {
            ++shootdowns_filtered_;
            return std::nullopt;
        }
        FbtEvictedPage page = snapshot(bt_[f->bt_index]);
        bt_[f->bt_index].valid = false;
        f->valid = false;
        return page;
    }

    /**
     * All-entry shootdown for one address space (or every space when
     * @p asid is nullopt).  @return every purged page.
     */
    std::vector<FbtEvictedPage>
    shootdownAll(std::optional<Asid> asid = std::nullopt)
    {
        std::vector<FbtEvictedPage> pages;
        for (auto &e : bt_) {
            if (e.valid && (!asid || e.asid == *asid)) {
                pages.push_back(snapshot(e));
                e.valid = false;
            }
        }
        for (auto &f : ft_) {
            if (f.valid && (!asid || f.asid == *asid))
                f.valid = false;
        }
        return pages;
    }

    // ---------------------------------------------------------------
    // Introspection and statistics
    // ---------------------------------------------------------------

    std::size_t
    validEntries() const
    {
        std::size_t n = 0;
        for (const auto &e : bt_)
            n += e.valid ? 1 : 0;
        return n;
    }

    /** Check the BT/FT bijection invariant (tests). */
    bool
    consistent() const
    {
        std::size_t bt_valid = 0, ft_valid = 0;
        for (const auto &e : bt_)
            bt_valid += e.valid ? 1 : 0;
        for (const auto &f : ft_) {
            if (!f.valid)
                continue;
            ++ft_valid;
            const BtEntry &e = bt_[f.bt_index];
            if (!e.valid || e.asid != f.asid || e.leading_vpn != f.vpn)
                return false;
        }
        return bt_valid == ft_valid;
    }

    std::uint64_t synonymAccesses() const { return synonym_accesses_.value; }
    std::uint64_t rwFaults() const { return rw_faults_.value; }
    std::uint64_t reverseLookups() const { return reverse_lookups_.value; }
    std::uint64_t probesFiltered() const { return probes_filtered_.value; }
    std::uint64_t shootdownsFiltered() const
    {
        return shootdowns_filtered_.value;
    }
    std::uint64_t allocations() const { return allocations_.value; }

    void
    stats(StatSink &s) const
    {
        s("bt_lookups", bt_lookups_);
        s("ft_lookups", ft_lookups_);
        s("ft_hits", ft_hits_);
        s("capacity_evictions", capacity_evictions_);
        s("shootdowns", shootdowns_);
        s("valid_pages", validEntries());
    }

    const FbtParams &params() const { return params_; }

  private:
    struct BtEntry
    {
        bool valid = false;
        Ppn ppn = kInvalidPpn;
        Asid asid = 0;
        Vpn leading_vpn = kInvalidVpn;
        Perms perms = kPermNone;
        std::uint32_t line_bits = 0;
        std::uint32_t line_count = 0; ///< Counter mode (large pages).
        bool large = false;
        bool written = false;
        std::uint64_t lru = 0;
    };

    struct FtEntry
    {
        bool valid = false;
        Asid asid = 0;
        Vpn vpn = kInvalidVpn;
        std::uint32_t bt_index = 0;
        std::uint64_t lru = 0;
    };

    static bool
    lineCached(const BtEntry &e, unsigned line_idx)
    {
        if (e.large)
            return e.line_count > 0;
        return (e.line_bits >> line_idx) & 1u;
    }

    static FbtEvictedPage
    snapshot(const BtEntry &e)
    {
        return FbtEvictedPage{e.asid, e.leading_vpn, e.ppn, e.line_bits,
                              e.large, e.line_count};
    }

    // --- BT set management (indexed by PPN) ---

    std::size_t btSet(Ppn ppn) const { return bt_set_of_(ppn); }

    BtEntry *
    findBt(Ppn ppn)
    {
        const std::size_t base = btSet(ppn) * params_.bt_assoc;
        for (unsigned w = 0; w < params_.bt_assoc; ++w) {
            BtEntry &e = bt_[base + w];
            if (e.valid && e.ppn == ppn)
                return &e;
        }
        return nullptr;
    }

    void touchBt(BtEntry &e) { e.lru = ++lru_clock_; }

    // --- FT set management (indexed by hashed (asid, vpn)) ---

    std::size_t
    ftSet(Asid asid, Vpn vpn) const
    {
        std::uint64_t h = vpn ^ (std::uint64_t(asid) << 40);
        h ^= h >> 23;
        h *= 0x2127599bf4325c37ull;
        h ^= h >> 47;
        return ft_set_of_(h);
    }

    const FtEntry *
    findFt(Asid asid, Vpn vpn) const
    {
        const std::size_t base = ftSet(asid, vpn) * params_.ft_assoc;
        for (unsigned w = 0; w < params_.ft_assoc; ++w) {
            const FtEntry &f = ft_[base + w];
            if (f.valid && f.asid == asid && f.vpn == vpn)
                return &f;
        }
        return nullptr;
    }

    FtEntry *
    findFtMutable(Asid asid, Vpn vpn)
    {
        return const_cast<FtEntry *>(findFt(asid, vpn));
    }

    /**
     * BT entry led by (asid, vpn), where @p vpn may be any 4 KB page of
     * a counter-mode 2 MB entry (whose FT key is the 2 MB-aligned VPN).
     */
    BtEntry *
    btOfLeading(Asid asid, Vpn vpn)
    {
        if (const FtEntry *f = findFt(asid, vpn)) {
            BtEntry &e = bt_[f->bt_index];
            if (e.valid)
                return &e;
        }
        const Vpn large_base = vpn & ~Vpn{0x1ff};
        if (large_base != vpn) {
            if (const FtEntry *f = findFt(asid, large_base)) {
                BtEntry &e = bt_[f->bt_index];
                if (e.valid && e.large)
                    return &e;
            }
        }
        return nullptr;
    }

    // --- allocation with paired eviction ---

    void
    allocate(Asid asid, Vpn vpn, Ppn ppn, Perms perms, bool written,
             bool large, std::vector<FbtEvictedPage> &victims)
    {
        ++allocations_;

        // Pick the BT way: an invalid way or the set's LRU.
        const std::size_t bt_base = btSet(ppn) * params_.bt_assoc;
        std::size_t bt_way = bt_base;
        for (unsigned w = 0; w < params_.bt_assoc; ++w) {
            BtEntry &e = bt_[bt_base + w];
            if (!e.valid) {
                bt_way = bt_base + w;
                break;
            }
            if (e.lru < bt_[bt_way].lru)
                bt_way = bt_base + w;
        }
        if (bt_[bt_way].valid) {
            ++capacity_evictions_;
            victims.push_back(snapshot(bt_[bt_way]));
            invalidateFtOf(bt_[bt_way]);
            bt_[bt_way].valid = false;
        }

        // Pick the FT way similarly; evicting a live FT entry must also
        // purge its BT partner to preserve the bijection.
        const std::size_t ft_base = ftSet(asid, vpn) * params_.ft_assoc;
        std::size_t ft_way = ft_base;
        for (unsigned w = 0; w < params_.ft_assoc; ++w) {
            FtEntry &f = ft_[ft_base + w];
            if (!f.valid) {
                ft_way = ft_base + w;
                break;
            }
            if (f.lru < ft_[ft_way].lru)
                ft_way = ft_base + w;
        }
        if (ft_[ft_way].valid) {
            ++capacity_evictions_;
            BtEntry &partner = bt_[ft_[ft_way].bt_index];
            if (partner.valid) {
                victims.push_back(snapshot(partner));
                partner.valid = false;
            }
            ft_[ft_way].valid = false;
        }

        BtEntry &e = bt_[bt_way];
        e.valid = true;
        e.ppn = ppn;
        e.asid = asid;
        e.leading_vpn = vpn;
        e.perms = perms;
        e.line_bits = 0;
        e.line_count = 0;
        e.large = large;
        e.written = written;
        e.lru = ++lru_clock_;

        FtEntry &f = ft_[ft_way];
        f.valid = true;
        f.asid = asid;
        f.vpn = vpn;
        f.bt_index = std::uint32_t(bt_way);
        f.lru = ++lru_clock_;
    }

    void
    invalidateFtOf(const BtEntry &e)
    {
        if (FtEntry *f = findFtMutable(e.asid, e.leading_vpn))
            f->valid = false;
    }

    FbtParams params_;
    SetIndex bt_set_of_;
    SetIndex ft_set_of_;
    std::vector<BtEntry> bt_;
    std::vector<FtEntry> ft_;
    std::uint64_t lru_clock_ = 0;

    Counter bt_lookups_;
    Counter ft_lookups_; ///< Lookups as the second-level TLB ...
    Counter ft_hits_;    ///< ... and their hits (paper: ~74%).
    Counter synonym_accesses_;
    Counter rw_faults_;
    Counter reverse_lookups_;
    Counter probes_filtered_;
    Counter shootdowns_;
    Counter shootdowns_filtered_;
    Counter allocations_;
    Counter capacity_evictions_;
};

} // namespace gvc

#endif // GVC_CORE_FBT_HH
