/**
 * @file
 * Set-associative TLB with a selectable replacement policy (true LRU
 * or the RRIP family — SRRIP / BRRIP / set-dueling DRRIP), ASID tags,
 * optional infinite capacity (for the paper's "infinite" per-CU TLB
 * experiments), entry-lifetime recording (Figure 12), and dead-entry
 * fill policies: a static next-line bypass and a trained
 * DeadPredictor bypass with dead-first victim selection
 * (tlb/dead_pred.hh, "Dead on Arrival").
 *
 * Entries carry an explicit *reach* (log2 of the contiguous 4 KB pages
 * they span, see sim/types.hh): reach 0 is the classic one-page entry,
 * reach 9 a full 2 MB page, and intermediate reaches arise from
 * subregion-contiguity coalescing at fill time and buddy merging at
 * insertion time.  A reach-r entry is tagged by its aligned base VPN and
 * indexed by (base >> r) % sets, so each reach class has its own index
 * function; lookups probe the classes currently present (cheap: a
 * per-class entry count gates each probe).  With only reach-0 entries
 * the TLB is cycle- and stat-identical to the classic design.
 */

#ifndef GVC_TLB_TLB_HH
#define GVC_TLB_TLB_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/page_table.hh"
#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/set_index.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "tlb/dead_pred.hh"

namespace gvc
{

/** TLB fill policies (TlbParams::fill_policy). */
enum : unsigned {
    /** Install every fill (classic). */
    kTlbFillLru = 0,
    /**
     * Bypass fills a static next-line predictor flags as dead on
     * arrival: a fill whose VPN extends the previous fill's VPN by one
     * is part of a sequential stream and is predicted never to be
     * re-referenced before eviction ("Dead on Arrival").  Bypassed
     * translations are simply not cached; a later access re-translates.
     */
    kTlbFillBypassDead = 1,
    /**
     * Bypass fills a trained DeadPredictor flags as dead on arrival
     * (region-indexed saturating counters trained on insert-to-evict
     * outcomes; see tlb/dead_pred.hh), and prefer predicted-dead
     * zero-reference residents as eviction victims.  Every
     * DeadPredictor::kSamplePeriod-th predicted-dead fill installs
     * anyway so the table keeps learning.
     */
    kTlbFillBypassTrained = 2,
};

/** TLB replacement policies (TlbParams::replacement). */
enum : unsigned {
    /** True LRU over the set (classic; the repo's historical policy). */
    kTlbReplLru = 0,
    /**
     * Static RRIP: 2-bit re-reference prediction values, insert at 2
     * ("long"), promote to 0 on hit, evict the lowest-index entry at 3
     * ("distant"), aging the whole set until one reaches 3.
     */
    kTlbReplSrrip = 1,
    /**
     * Bimodal RRIP: like SRRIP but inserts at 3, except every 32nd
     * fill (deterministic counter, not random) inserts at 2 — thrash
     * protection for reuse distances beyond the set size.
     */
    kTlbReplBrrip = 2,
    /**
     * Dynamic RRIP: set-dueling between SRRIP and BRRIP.  Sets with
     * index % 32 == 0 are SRRIP leaders, index % 32 == 1 BRRIP
     * leaders; a miss-install into a leader set moves a 10-bit PSEL
     * toward the other policy and follower sets insert with whichever
     * side PSEL favors.  A TLB with < 2 sets has no BRRIP leader and
     * degenerates to SRRIP behavior.
     */
    kTlbReplDrrip = 3,
};

/** Canonical spelling of a replacement policy (CLI / JSON / tables). */
inline const char *
tlbReplacementName(unsigned r)
{
    switch (r) {
    case kTlbReplLru:
        return "lru";
    case kTlbReplSrrip:
        return "srrip";
    case kTlbReplBrrip:
        return "brrip";
    case kTlbReplDrrip:
        return "drrip";
    default:
        return "?";
    }
}

/** Parse a replacement-policy name; returns false on unknown input. */
inline bool
tlbReplacementFromName(const std::string &name, unsigned &out)
{
    for (unsigned r :
         {kTlbReplLru, kTlbReplSrrip, kTlbReplBrrip, kTlbReplDrrip}) {
        if (name == tlbReplacementName(r)) {
            out = r;
            return true;
        }
    }
    return false;
}

/** Canonical spelling of a fill policy (CLI / JSON / tables). */
inline const char *
tlbFillPolicyName(unsigned p)
{
    switch (p) {
    case kTlbFillLru:
        return "lru";
    case kTlbFillBypassDead:
        return "bypass-dead";
    case kTlbFillBypassTrained:
        return "bypass-trained";
    default:
        return "?";
    }
}

/** Parse a fill-policy name; returns false on unknown input. */
inline bool
tlbFillPolicyFromName(const std::string &name, unsigned &out)
{
    for (unsigned p :
         {kTlbFillLru, kTlbFillBypassDead, kTlbFillBypassTrained}) {
        if (name == tlbFillPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

/** Configuration for a Tlb instance. */
struct TlbParams
{
    unsigned entries = 32;
    /** Associativity; 0 selects fully associative. */
    unsigned assoc = 0;
    /** Infinite capacity: never miss after first fill (demand misses only). */
    bool infinite = false;
    /** Record entry residence times (insert -> evict). */
    bool track_lifetimes = false;
    /**
     * Last-translation memo: remember where the previous hit lives and
     * skip the associative scan when the same page repeats.  Pure
     * host-side fast path — every simulated side effect (stat counters,
     * recency update) is identical with the memo on or off.
     */
    bool memo = true;
    /**
     * Maximum entry reach (log2 pages, clamped to kMaxReachLog2).
     * 0 keeps the classic one-entry-per-4KB-page TLB; 9 admits full
     * 2 MB-page entries.  Fills wider than this degrade to reach 0.
     * Ignored in infinite mode (capacity is free there, so reach only
     * matters for real arrays).
     */
    unsigned max_reach = 0;
    /**
     * Buddy-merge at insertion time: when a fill's naturally-aligned
     * buddy block is resident with the same ASID/perms and physically
     * contiguous frames, replace both entries by one of twice the
     * reach, repeating up the reach ladder ("Enabling Large-Reach TLBs
     * by Exploiting Memory Subregion Contiguity").
     */
    bool merge_on_insert = false;
    /** Fill policy: one of the kTlbFill* values above. */
    unsigned fill_policy = kTlbFillLru;
    /** Replacement policy: one of the kTlbRepl* values above. */
    unsigned replacement = kTlbReplLru;
};

/** Outcome of a TLB lookup. */
struct TlbLookup
{
    Ppn ppn = kInvalidPpn;
    Perms perms = kPermNone;
    bool large = false;
    /**
     * Reach of the entry that produced (or should receive) this
     * translation.  reach > 0 makes base_vpn/base_ppn meaningful: they
     * name the aligned block so a downstream TLB can install the same
     * multi-page entry instead of a one-page slice.
     */
    std::uint8_t reach = 0;
    Vpn base_vpn = kInvalidVpn;
    Ppn base_ppn = kInvalidPpn;
};

/**
 * Per-entry reference-count histogram over completed residencies
 * (insert -> evict/invalidate, plus still-resident entries flushed at
 * simulation end).  Bucket 0 counts dead-on-arrival entries — filled
 * but never re-referenced before leaving the TLB, the population "Dead
 * on Arrival" characterizes; bucket b >= 1 counts residencies with
 * refs in [2^(b-1), 2^b), saturating in the last bucket.
 */
struct TlbRefHist
{
    static constexpr std::size_t kBuckets = 12;

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t retired = 0; ///< Residencies recorded (sum of buckets).
    std::uint64_t dead = 0;    ///< Residencies with zero re-references.

    static std::size_t
    bucketOf(std::uint64_t refs)
    {
        if (refs == 0)
            return 0;
        std::size_t b = 1;
        while (refs > 1 && b + 1 < kBuckets) {
            refs >>= 1;
            ++b;
        }
        return b;
    }

    void
    record(std::uint64_t refs)
    {
        ++buckets[bucketOf(refs)];
        ++retired;
        if (refs == 0)
            ++dead;
    }

    void
    merge(const TlbRefHist &o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            buckets[i] += o.buckets[i];
        retired += o.retired;
        dead += o.dead;
    }

    /** Fraction of residencies never re-referenced (0 when empty). */
    double
    deadFraction() const
    {
        return retired ? double(dead) / double(retired) : 0.0;
    }

    bool
    operator==(const TlbRefHist &o) const
    {
        return buckets == o.buckets && retired == o.retired &&
               dead == o.dead;
    }
    bool operator!=(const TlbRefHist &o) const { return !(*this == o); }
};

/**
 * A TLB over variable-reach translations.  Without reach (max_reach 0)
 * large-page translations are cached per 4 KB region they cover (a
 * common simplification which only affects capacity pressure, not
 * correctness); with reach enabled a 2 MB mapping occupies one reach-9
 * entry.
 */
class Tlb
{
  public:
    /**
     * Called when a capacity eviction retires a reach-0 entry, with
     * (asid, vpn, ppn, perms) of the dying translation.  This is the
     * Victima hook: the owning system may stash the translation in the
     * L2 data array.  Shootdown/flush invalidations never fire it —
     * those translations die for a reason.
     */
    using EvictHookFn = SmallFunc<void(Asid, Vpn, Ppn, Perms)>;

    explicit Tlb(const TlbParams &params)
        : params_(params)
    {
        if (params_.max_reach > kMaxReachLog2)
            params_.max_reach = kMaxReachLog2;
        if (params_.infinite)
            return;
        if (params_.entries == 0)
            fatal("Tlb: entries must be nonzero");
        unsigned assoc = params_.assoc == 0 ? params_.entries
                                            : params_.assoc;
        if (assoc > params_.entries)
            assoc = params_.entries;
        set_of_ = SetIndex(params_.entries / assoc);
        assoc_ = unsigned(params_.entries / set_of_.size());
        sets_.resize(set_of_.size());
        for (auto &set : sets_)
            set.reserve(assoc_);
    }

    /** Look up (asid, vpn); updates recency on hit. */
    std::optional<TlbLookup>
    lookup(Asid asid, Vpn vpn, Tick now)
    {
        ++accesses_;
        if (params_.infinite) {
            if (memo_inf_ && memo_asid_ == asid && memo_vpn_ == vpn) {
                ++hits_;
                ++memo_inf_->refs;
                return memo_inf_->xlate;
            }
            auto it = inf_.find(key(asid, vpn));
            if (it == inf_.end()) {
                ++misses_;
                return std::nullopt;
            }
            ++hits_;
            ++it->second.refs;
            if (params_.memo) {
                // Pointers into inf_ stay valid across emplace/rehash;
                // the erase paths below drop the memo explicitly.
                memo_inf_ = &it->second;
                memo_asid_ = asid;
                memo_vpn_ = vpn;
            }
            return it->second.xlate;
        }
        if (memo_way_ != kNoMemo && memo_asid_ == asid &&
            memo_vpn_ == vpn) {
            // Position-validated: the memo only short-circuits the scan
            // when the remembered slot still holds an entry covering
            // this exact key, so a reshuffled set silently falls back
            // to the full scan.
            auto &set = sets_[memo_set_];
            if (memo_way_ < set.size()) {
                auto &e = set[memo_way_];
                if (e.asid == asid &&
                    e.vpn == reachBase(vpn, e.reach) &&
                    memo_set_ == setIndex(e.vpn, e.reach)) {
                    return hitEntry(e, vpn, now);
                }
            }
            memo_way_ = kNoMemo;
        }
        for (unsigned r = 0; r <= kMaxReachLog2; ++r) {
            if (!class_count_[r])
                continue;
            const Vpn base = reachBase(vpn, r);
            const std::size_t si = setIndex(base, r);
            auto &set = sets_[si];
            for (std::size_t i = 0; i < set.size(); ++i) {
                auto &e = set[i];
                if (e.reach == r && e.asid == asid && e.vpn == base) {
                    if (params_.memo) {
                        memo_set_ = si;
                        memo_way_ = i;
                        memo_asid_ = asid;
                        memo_vpn_ = vpn;
                    }
                    return hitEntry(e, vpn, now);
                }
            }
        }
        ++misses_;
        return std::nullopt;
    }

    /** Drop the last-translation memo (invalidation / structural change). */
    void
    clearMemo()
    {
        memo_way_ = kNoMemo;
        memo_inf_ = nullptr;
    }

    /** Probe without side effects (no recency update, no stats). */
    bool
    present(Asid asid, Vpn vpn) const
    {
        if (params_.infinite)
            return inf_.count(key(asid, vpn)) != 0;
        for (unsigned r = 0; r <= kMaxReachLog2; ++r) {
            if (!class_count_[r])
                continue;
            const Vpn base = reachBase(vpn, r);
            const auto &set = sets_[setIndex(base, r)];
            for (const auto &e : set)
                if (e.reach == r && e.asid == asid && e.vpn == base)
                    return true;
        }
        return false;
    }

    /** Install a translation, evicting LRU if the set is full. */
    void
    insert(Asid asid, Vpn vpn, const TlbLookup &xlate, Tick now)
    {
        bool sampled = false;
        if (params_.fill_policy == kTlbFillBypassDead &&
            !params_.infinite && xlate.reach == 0) {
            const bool seq = asid == pred_asid_ && vpn == pred_vpn_ + 1;
            pred_asid_ = asid;
            pred_vpn_ = vpn;
            if (seq) {
                ++fill_bypasses_;
                return;
            }
        } else if (params_.fill_policy == kTlbFillBypassTrained &&
                   !params_.infinite && xlate.reach == 0 &&
                   dead_pred_.predictDead(asid, vpn)) {
            if (!dead_pred_.sampleFill()) {
                ++fill_bypasses_;
                return;
            }
            sampled = true;
        }
        ++fills_;
        if (params_.infinite) {
            // Capacity is free: cache per requested page, reach ignored.
            inf_.emplace(key(asid, vpn),
                         InfEntry{TlbLookup{xlate.ppn, xlate.perms,
                                            xlate.large},
                                  0});
            return;
        }
        unsigned r = xlate.reach;
        Vpn base = xlate.base_vpn;
        Ppn base_ppn = xlate.base_ppn;
        if (r == 0 || r > params_.max_reach) {
            r = 0;
            base = vpn;
            base_ppn = xlate.ppn;
        }
        if (r > 0)
            ++reach_fills_;
        installEntry(asid, base, base_ppn, xlate.perms, xlate.large, r,
                     now, sampled);
        if (params_.merge_on_insert)
            tryMerge(asid, base, r, now);
    }

    /**
     * Invalidate every entry covering (asid, vpn).  A reach-r entry is
     * dropped whole: precise single-page shootdown inside a multi-page
     * entry costs the whole entry (the surviving pages re-fill, and a
     * split page table re-coalesces what is still contiguous).
     * @return true if anything was evicted.
     */
    bool
    invalidatePage(Asid asid, Vpn vpn, Tick now = 0)
    {
        ++shootdowns_;
        clearMemo();
        if (params_.infinite) {
            auto it = inf_.find(key(asid, vpn));
            if (it == inf_.end())
                return false;
            ref_hist_.record(it->second.refs);
            inf_.erase(it);
            return true;
        }
        bool any = false;
        for (unsigned r = 0; r <= kMaxReachLog2; ++r) {
            if (!class_count_[r])
                continue;
            const Vpn base = reachBase(vpn, r);
            auto &set = sets_[setIndex(base, r)];
            for (std::size_t i = 0; i < set.size(); ++i) {
                if (set[i].reach == r && set[i].asid == asid &&
                    set[i].vpn == base) {
                    retire(set[i], now);
                    set.erase(set.begin() + long(i));
                    any = true;
                    break;
                }
            }
        }
        return any;
    }

    /** Invalidate every entry of one address space. */
    void
    invalidateAsid(Asid asid, Tick now = 0)
    {
        clearMemo();
        if (params_.infinite) {
            for (auto it = inf_.begin(); it != inf_.end();) {
                if (Asid(it->first >> 48) == asid) {
                    ref_hist_.record(it->second.refs);
                    it = inf_.erase(it);
                } else {
                    ++it;
                }
            }
            return;
        }
        for (auto &set : sets_) {
            for (std::size_t i = set.size(); i-- > 0;) {
                if (set[i].asid == asid) {
                    retire(set[i], now);
                    set.erase(set.begin() + long(i));
                }
            }
        }
    }

    /** Invalidate everything. */
    void
    invalidateAll(Tick now = 0)
    {
        clearMemo();
        for (const auto &[k, e] : inf_)
            ref_hist_.record(e.refs);
        inf_.clear();
        for (auto &set : sets_) {
            for (auto &e : set)
                retire(e, now);
            set.clear();
        }
    }

    /** Install the capacity-eviction hook (Victima stashing). */
    void
    setEvictHook(EvictHookFn fn)
    {
        evict_hook_ = std::move(fn);
    }

    std::uint64_t accesses() const { return accesses_.value; }
    std::uint64_t hits() const { return hits_.value; }
    std::uint64_t misses() const { return misses_.value; }
    std::uint64_t fills() const { return fills_.value; }
    /** Hits served by reach > 0 entries. */
    std::uint64_t reachHits() const { return reach_hits_.value; }
    /** Fills installed with reach > 0. */
    std::uint64_t reachFills() const { return reach_fills_.value; }
    /** Buddy merges performed at insertion time. */
    std::uint64_t merges() const { return merges_.value; }
    /** Fills bypassed by the dead-on-arrival predictor. */
    std::uint64_t fillBypasses() const { return fill_bypasses_.value; }
    /** Evictions that chose a predicted-dead zero-ref resident first. */
    std::uint64_t
    deadFirstEvictions() const
    {
        return dead_first_evictions_.value;
    }
    /** Sampled predicted-dead installs that retired with zero refs. */
    std::uint64_t predTruePos() const { return pred_true_pos_.value; }
    /** Sampled predicted-dead installs that were re-referenced. */
    std::uint64_t predFalsePos() const { return pred_false_pos_.value; }

    double
    missRatio() const
    {
        return accesses_.value
            ? double(misses_.value) / double(accesses_.value)
            : 0.0;
    }

    const LifetimeRecorder &lifetimes() const { return lifetimes_; }

    /**
     * Reference counts of completed residencies (always tracked — the
     * bookkeeping is host-side only and never perturbs simulated
     * behavior).  Residencies still live at simulation end are only
     * included after flushResidentRefs().
     */
    const TlbRefHist &refHist() const { return ref_hist_; }

    /** Fold still-resident entries into refHist() (simulation end). */
    void
    flushResidentRefs()
    {
        if (refs_flushed_)
            return;
        refs_flushed_ = true;
        for (const auto &[k, e] : inf_)
            ref_hist_.record(e.refs);
        for (const auto &set : sets_)
            for (const auto &e : set)
                ref_hist_.record(e.refs);
    }

    unsigned numSets() const { return unsigned(set_of_.size()); }
    unsigned assoc() const { return assoc_; }

  private:
    struct Entry
    {
        Asid asid;
        Vpn vpn; ///< Base VPN, aligned to the entry's reach.
        Ppn ppn; ///< Frame of the base page; +i maps base + i.
        Perms perms;
        bool large;
        std::uint8_t reach; ///< log2 pages spanned.
        Tick inserted;
        Tick last_used;
        std::uint64_t lru;
        /// Hits after insertion this residency.
        std::uint32_t refs;
        /// RRIP re-reference prediction value (makeEntry() sets it
        /// per the replacement policy).
        std::uint8_t rrpv;
        /// Installed despite a dead prediction (a DeadPredictor
        /// sampling install); its retirement scores the predictor.
        bool sampled;
    };

    /** Infinite-mode entry: the translation plus its residency refs. */
    struct InfEntry
    {
        TlbLookup xlate;
        std::uint32_t refs = 0;
    };

    static std::uint64_t
    key(Asid asid, Vpn vpn)
    {
        return (std::uint64_t(asid) << 48) | vpn;
    }

    /** Set of a reach-r entry based at @p base (aligned). */
    std::size_t
    setIndex(Vpn base, unsigned r) const
    {
        return set_of_(base >> r);
    }

    TlbLookup
    hitEntry(Entry &e, Vpn vpn, Tick now)
    {
        ++hits_;
        if (e.reach > 0)
            ++reach_hits_;
        e.last_used = now;
        e.lru = ++lru_clock_;
        e.rrpv = 0;
        ++e.refs;
        return TlbLookup{e.ppn + (vpn - e.vpn), e.perms, e.large,
                         e.reach, e.vpn, e.ppn};
    }

    /**
     * Insertion RRPV for a miss-install into set @p si, resolving
     * DRRIP's set duel.  Leader-set installs also move PSEL: a miss
     * in an SRRIP leader is evidence against SRRIP (PSEL up), in a
     * BRRIP leader evidence against BRRIP (PSEL down); followers use
     * BRRIP while PSEL > kPselInit.
     */
    std::uint8_t
    insertRrpv(std::size_t si)
    {
        unsigned pol = params_.replacement;
        if (pol == kTlbReplDrrip) {
            if (si % kDuelPeriod == 0) {
                if (psel_ < kPselMax)
                    ++psel_;
                pol = kTlbReplSrrip;
            } else if (si % kDuelPeriod == 1) {
                if (psel_ > 0)
                    --psel_;
                pol = kTlbReplBrrip;
            } else {
                pol = psel_ > kPselInit ? kTlbReplBrrip
                                        : kTlbReplSrrip;
            }
        }
        if (pol == kTlbReplSrrip)
            return kRrpvLong;
        return (brrip_counter_++ % kBrripPeriod) == 0 ? kRrpvLong
                                                      : kRrpvMax;
    }

    /**
     * Victim way of a full set.  Under the trained fill policy a
     * predicted-dead zero-reference reach-0 resident goes first; the
     * replacement policy (true LRU or RRIP aging) breaks the fallback.
     */
    std::size_t
    pickVictim(std::vector<Entry> &set)
    {
        if (params_.fill_policy == kTlbFillBypassTrained) {
            for (std::size_t i = 0; i < set.size(); ++i) {
                const Entry &e = set[i];
                if (e.reach == 0 && e.refs == 0 &&
                    dead_pred_.predictDead(e.asid, e.vpn)) {
                    ++dead_first_evictions_;
                    return i;
                }
            }
        }
        if (params_.replacement == kTlbReplLru) {
            std::size_t victim = 0;
            for (std::size_t i = 1; i < set.size(); ++i)
                if (set[i].lru < set[victim].lru)
                    victim = i;
            return victim;
        }
        for (;;) {
            for (std::size_t i = 0; i < set.size(); ++i)
                if (set[i].rrpv >= kRrpvMax)
                    return i;
            for (auto &e : set)
                ++e.rrpv;
        }
    }

    Entry
    makeEntry(Asid asid, Vpn base, Ppn ppn, Perms perms, bool large,
              unsigned r, Tick now, std::size_t si, bool sampled)
    {
        Entry e{asid, base,        ppn, perms, large, std::uint8_t(r),
                now,  now, ++lru_clock_, 0,    0,     false};
        e.rrpv = params_.replacement == kTlbReplLru ? 0 : insertRrpv(si);
        e.sampled = sampled;
        return e;
    }

    void
    installEntry(Asid asid, Vpn base, Ppn ppn, Perms perms, bool large,
                 unsigned r, Tick now, bool sampled = false)
    {
        const std::size_t si = setIndex(base, r);
        auto &set = sets_[si];
        for (auto &e : set) {
            if (e.reach == r && e.asid == asid && e.vpn == base) {
                e.ppn = ppn;
                e.perms = perms;
                e.large = large;
                e.lru = ++lru_clock_;
                e.rrpv = 0;
                return;
            }
        }
        if (set.size() < assoc_) {
            set.push_back(makeEntry(asid, base, ppn, perms, large, r,
                                    now, si, sampled));
            ++class_count_[r];
            return;
        }
        const std::size_t victim = pickVictim(set);
        const Entry dying = set[victim];
        retire(dying, now);
        set[victim] =
            makeEntry(asid, base, ppn, perms, large, r, now, si, sampled);
        ++class_count_[r];
        if (evict_hook_ && dying.reach == 0)
            evict_hook_(dying.asid, dying.vpn, dying.ppn, dying.perms);
    }

    /** Find-and-copy a specific (asid, base, reach) entry. */
    std::optional<Entry>
    findEntry(Asid asid, Vpn base, unsigned r) const
    {
        const auto &set = sets_[setIndex(base, r)];
        for (const auto &e : set)
            if (e.reach == r && e.asid == asid && e.vpn == base)
                return e;
        return std::nullopt;
    }

    /** Remove a specific entry (merge bookkeeping, not a shootdown). */
    void
    removeEntry(Asid asid, Vpn base, unsigned r, Tick now)
    {
        auto &set = sets_[setIndex(base, r)];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].reach == r && set[i].asid == asid &&
                set[i].vpn == base) {
                retire(set[i], now);
                set.erase(set.begin() + long(i));
                return;
            }
        }
    }

    /**
     * Buddy-merge ladder: starting from the entry at (asid, base,
     * reach r), merge with its aligned buddy while the buddy is
     * resident, permission-identical, and the combined frames are
     * physically contiguous.
     */
    void
    tryMerge(Asid asid, Vpn base, unsigned r, Tick now)
    {
        while (r < params_.max_reach) {
            const auto self = findEntry(asid, base, r);
            if (!self)
                return;
            const Vpn buddy_base = base ^ reachPages(r);
            const auto buddy = findEntry(asid, buddy_base, r);
            if (!buddy || buddy->perms != self->perms ||
                buddy->large != self->large)
                return;
            const Entry &lo = base < buddy_base ? *self : *buddy;
            const Entry &hi = base < buddy_base ? *buddy : *self;
            if (lo.ppn + reachPages(r) != hi.ppn)
                return;
            const Vpn merged_base = lo.vpn;
            const Ppn merged_ppn = lo.ppn;
            const Perms perms = lo.perms;
            const bool large = lo.large;
            removeEntry(asid, base, r, now);
            removeEntry(asid, buddy_base, r, now);
            ++merges_;
            installEntry(asid, merged_base, merged_ppn, perms, large,
                         r + 1, now);
            clearMemo();
            base = merged_base;
            ++r;
        }
    }

    void
    retire(const Entry &e, Tick now)
    {
        if (params_.track_lifetimes && now > e.inserted)
            lifetimes_.record(now - e.inserted);
        ref_hist_.record(e.refs);
        --class_count_[e.reach];
        if (params_.fill_policy == kTlbFillBypassTrained &&
            e.reach == 0) {
            dead_pred_.train(e.asid, e.vpn, e.refs == 0);
            if (e.sampled) {
                // A sampling install scores the prediction it defied.
                if (e.refs == 0)
                    ++pred_true_pos_;
                else
                    ++pred_false_pos_;
            }
        }
    }

    TlbParams params_;
    SetIndex set_of_;
    unsigned assoc_ = 1;
    std::vector<std::vector<Entry>> sets_;
    std::unordered_map<std::uint64_t, InfEntry> inf_;
    std::uint64_t lru_clock_ = 0;
    /** Live entries per reach class; gates the per-class lookup probes. */
    std::array<std::uint32_t, kMaxReachLog2 + 1> class_count_{};

    static constexpr std::size_t kNoMemo = std::size_t(-1);
    std::size_t memo_set_ = 0;
    std::size_t memo_way_ = kNoMemo;
    InfEntry *memo_inf_ = nullptr;
    Asid memo_asid_ = 0;
    Vpn memo_vpn_ = 0;

    /** Next-line dead-on-arrival predictor state (fill bypass). */
    Asid pred_asid_ = 0;
    Vpn pred_vpn_ = kInvalidVpn;

    /** Trained dead-on-arrival predictor (kTlbFillBypassTrained). */
    DeadPredictor dead_pred_;

    // RRIP state (kTlbReplSrrip / kTlbReplBrrip / kTlbReplDrrip).
    static constexpr std::uint8_t kRrpvMax = 3;  ///< "distant future"
    static constexpr std::uint8_t kRrpvLong = 2; ///< "long interval"
    static constexpr unsigned kBrripPeriod = 32;
    static constexpr unsigned kDuelPeriod = 32;
    static constexpr unsigned kPselMax = 1023; ///< 10-bit saturating
    static constexpr unsigned kPselInit = 512;
    unsigned psel_ = kPselInit;
    std::uint64_t brrip_counter_ = 0;

    EvictHookFn evict_hook_;

    Counter accesses_;
    Counter hits_;
    Counter misses_;
    Counter fills_;
    Counter shootdowns_;
    Counter reach_hits_;
    Counter reach_fills_;
    Counter merges_;
    Counter fill_bypasses_;
    Counter dead_first_evictions_;
    Counter pred_true_pos_;
    Counter pred_false_pos_;
    LifetimeRecorder lifetimes_;
    TlbRefHist ref_hist_;
    bool refs_flushed_ = false;
};

} // namespace gvc

#endif // GVC_TLB_TLB_HH
