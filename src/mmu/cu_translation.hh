/**
 * @file
 * The per-CU translation stage shared by the Baseline (§2.1, Figure 1)
 * and the L1-only VC (§5.4): per-CU TLB lookup → Victima stash probe →
 * same-page miss merge → PCIe hop → IOMMU → return hop → per-CU TLB
 * fill.  It owns the per-CU TLB bank, the IOMMU, the stash side map,
 * the merge map and two hops (the TLB lookup and the IOMMU's answer
 * back to the CU; the trip out is the IOMMU's own translateIn), and
 * registers the Vm listeners that fan shootdowns out to the TLBs and
 * the stash (after the IOMMU's own; an owner's come after both).
 *
 * The owner enters with translate(req) and names its continuation as a
 * template argument, as Hop does, so no virtual call sits on the
 * per-access path.  When it runs, req->line_pa is the translated line
 * and req->resp.perms the page's permissions.  Matching the paper's
 * accounting (Figure 3 equates IOMMU TLB accesses with per-CU TLB
 * misses), same-page misses are merged only in the ablation.
 */

#ifndef GVC_MMU_CU_TRANSLATION_HH
#define GVC_MMU_CU_TRANSLATION_HH

#include <type_traits>
#include <unordered_map>

#include "mem/vm.hh"
#include "mmu/boundary.hh"
#include "mmu/iommu.hh"
#include "mmu/per_cu_tlbs.hh"
#include "mmu/phys_caches.hh"
#include "sim/logging.hh"

namespace gvc
{

/**
 * @p Missed, when given, is an Owner member taking a const MemRequest *
 * that sees each per-CU TLB miss before the stash.
 */
template <typename Owner, void (Owner::*Translated)(MemRequest *),
          auto Missed = nullptr>
class CuTranslation
{
  public:
    /**
     * @param caches  The owner's caches; the stash lives in their L2.
     * @param merge_misses  One IOMMU request per (CU, page) (ablation).
     * @param stash  Victima: park per-CU TLB capacity evictions in the
     *        L2 and probe them before the IOMMU.
     */
    CuTranslation(Owner &owner, SimContext &ctx, const SocConfig &cfg,
                  Vm &vm, Dram &dram, PhysCaches &caches,
                  bool merge_misses = false, bool stash = false)
        : owner_(owner), ctx_(ctx), caches_(caches),
          iommu_(ctx, vm, dram, cfg.iommuParams(),
                 [this](MemRequest *req) {
                     from_iommu_hop_.in(iommu_latency_, req);
                 }),
          tlbs_(cfg),
          tlb_latency_(cfg.percu_tlb_latency),
          iommu_latency_(cfg.cu_to_iommu),
          stash_latency_(2 * cfg.cu_to_l2 + cfg.l2_latency),
          merge_misses_(merge_misses)
    {
        if (stash) {
            for (unsigned cu = 0; cu < tlbs_.size(); ++cu)
                tlbs_[cu].setEvictHook(
                    [this](Asid asid, Vpn vpn, Ppn ppn, Perms perms) {
                        stashInsert(asid, vpn, ppn, perms);
                    });
        }
        vm.addPageShootdownListener([this](Asid asid, Vpn vpn) {
            for (unsigned cu = 0; cu < tlbs_.size(); ++cu)
                tlbs_[cu].invalidatePage(asid, vpn, ctx_.now());
            const Paddr addr = stashAddr(asid, vpn);
            if (stash_.erase(addr))
                caches_.l2().invalidateLine(0, addr);
        });
        vm.addFullShootdownListener([this](Asid asid) {
            for (unsigned cu = 0; cu < tlbs_.size(); ++cu)
                tlbs_[cu].invalidateAsid(asid, ctx_.now());
            dropStash([asid](Paddr addr) {
                return Asid((addr >> 44) & 0xffff) == asid;
            });
        });
    }

    /** Translate @p req: its CU's TLB answers after the lookup latency. */
    void translate(MemRequest *req) { tlb_hop_.in(tlb_latency_, req); }

    /**
     * Kernel boundary (§4), after the owner flushed its caches: a
     * flushed L2 took the stash lines with it, and a shootdown drops
     * every translation held here (TLBs, IOMMU TLB and PWC, stash).
     */
    void
    applyBoundary(const BoundaryPolicy &p)
    {
        if (p.flush_l2)
            stash_.clear();
        if (p.shootdown_tlbs) {
            for (unsigned cu = 0; cu < tlbs_.size(); ++cu)
                tlbs_[cu].invalidateAll(ctx_.now());
            iommu_.invalidateAll();
            dropStash([](Paddr) { return true; });
        }
    }

    Iommu &iommu() { return iommu_; }
    PerCuTlbs &tlbs() { return tlbs_; }

    void
    stats(StatSink &s) const
    {
        s.scope("iommu", iommu_);
        s.scope("percu_tlb", tlbs_);
    }

    /** The stash's rows, for an owner that offers the stash. */
    void
    stashStats(StatSink &s) const
    {
        s("victima.stashes", victima_stashes_);
        s("victima.probes", victima_probes_);
        s("victima.hits", victima_hits_);
    }

  private:
    /** @p req has its translation @p ppn: hand it to the owner. */
    void
    translated(MemRequest *req, Ppn ppn)
    {
        req->line_pa =
            pageBase(ppn) | (req->line_va & kPageMask & ~kLineMask);
        (owner_.*Translated)(req);
    }

    void
    afterTlb(MemRequest *req)
    {
        if (auto hit = tlbs_[req->cu].lookup(req->asid, req->vpn,
                                             ctx_.now())) {
            req->resp.perms = hit->perms;
            translated(req, hit->ppn);
            return;
        }

        if constexpr (!std::is_null_pointer_v<decltype(Missed)>)
            (owner_.*Missed)(req);

        // Only a Victima owner's evictions ever fill the stash.
        if (!stash_.empty() && probeStash(req))
            return;

        // One IOMMU request per (CU, page) when merging: later misses
        // queue behind the first.  Unmerged, each miss is one IOMMU
        // request (paper accounting).
        if (merge_misses_ && !pending_.join(mergeKey(req), req))
            return;
        iommu_.translateIn(iommu_latency_, req);
    }

    /**
     * The IOMMU answered @p req's translation: fill the per-CU TLB and
     * hand on @p req, with every request merged behind it.
     */
    void
    onTranslation(MemRequest *req)
    {
        const IommuResponse &resp = req->resp;
        if (resp.fault)
            fatal("CuTranslation: unhandled GPU page fault");
        tlbs_[req->cu].insert(req->asid, req->vpn,
                              TlbLookup{resp.ppn, resp.perms, resp.large,
                                        resp.reach, resp.base_vpn,
                                        resp.base_ppn},
                              ctx_.now());
        if (!merge_misses_) {
            translated(req, resp.ppn);
            return;
        }
        const Ppn ppn = resp.ppn;
        const Perms perms = resp.perms;
        pending_.release(mergeKey(req), [this, ppn, perms](MemRequest *w) {
            w->resp.perms = perms;
            translated(w, ppn);
        });
    }

    static std::uint64_t
    mergeKey(const MemRequest *req)
    {
        return (std::uint64_t(req->cu) << 56) |
               (std::uint64_t(req->asid) << 40) | req->vpn;
    }

    // --- Victima-style L2 translation stash ---
    //
    // Evicted per-CU TLB translations are parked in the L2 data array
    // under synthetic line addresses (bit 63 marks stash lines, which
    // cannot collide with real physical lines below phys_mem_bytes).
    // The side map mirrors array residency so misses stay cheap; the
    // array itself provides the capacity pressure — ordinary data fills
    // displace stash lines silently, exactly as in Victima.

    static Paddr
    stashAddr(Asid asid, Vpn vpn)
    {
        return (std::uint64_t{1} << 63) | (std::uint64_t(asid) << 44) |
               (vpn << kLineShift);
    }

    /** True when an earlier eviction parked @p req's translation. */
    bool
    probeStash(MemRequest *req)
    {
        const auto it = stash_.find(stashAddr(req->asid, req->vpn));
        if (it == stash_.end())
            return false;
        ++victima_probes_;
        const Paddr addr = it->first;
        if (!caches_.l2().access(0, addr, false, ctx_.now())) {
            // A data fill displaced the stash line: walk.  (Rare; the
            // probe latency is folded into the longer IOMMU path.)
            stash_.erase(it);
            return false;
        }
        // Hit: re-promote the translation into the TLB and consume the
        // stash copy.  Cost is one L2 round trip instead of the full
        // IOMMU translation.
        ++victima_hits_;
        req->resp.ppn = it->second.ppn;
        req->resp.perms = it->second.perms;
        stash_.erase(it);
        caches_.l2().invalidateLine(0, addr);
        ctx_.eq.scheduleIn(stash_latency_, [this, req] {
            tlbs_[req->cu].insert(
                req->asid, req->vpn,
                TlbLookup{req->resp.ppn, req->resp.perms, false},
                ctx_.now());
            translated(req, req->resp.ppn);
        });
        return true;
    }

    void
    stashInsert(Asid asid, Vpn vpn, Ppn ppn, Perms perms)
    {
        ++victima_stashes_;
        const Paddr addr = stashAddr(asid, vpn);
        stash_[addr] = StashEntry{ppn, perms};
        const auto victim =
            caches_.l2().insert(0, addr, kPermRead, false, ctx_.now());
        if (!victim)
            return;
        if (victim->line_addr >> 63)
            stash_.erase(victim->line_addr);
        else if (victim->dirty)
            caches_.directory().writeback(DirNode::kGpu,
                                          victim->line_addr);
    }

    /** Drop every stash line whose address satisfies @p drop. */
    template <typename Pred>
    void
    dropStash(Pred drop)
    {
        for (auto it = stash_.begin(); it != stash_.end();) {
            if (drop(it->first)) {
                caches_.l2().invalidateLine(0, it->first);
                it = stash_.erase(it);
            } else {
                ++it;
            }
        }
    }

    /** Payload of a stashed translation, keyed by stash line address. */
    struct StashEntry
    {
        Ppn ppn;
        Perms perms;
    };

    Owner &owner_;
    SimContext &ctx_;
    PhysCaches &caches_;
    Iommu iommu_;
    PerCuTlbs tlbs_;
    const Tick tlb_latency_;   ///< Per-CU TLB lookup.
    const Tick iommu_latency_; ///< CU <-> IOMMU, each way.
    const Tick stash_latency_; ///< CU -> L2 -> CU plus the L2 lookup.
    const bool merge_misses_;
    XlateMerge pending_;
    /// Victima side map: stash line address -> stashed translation.
    std::unordered_map<Paddr, StashEntry> stash_;
    Counter victima_stashes_;
    Counter victima_probes_;
    Counter victima_hits_;
    using Self = CuTranslation;
    Hop<Self, &Self::afterTlb> tlb_hop_{ctx_.eq, *this};
    Hop<Self, &Self::onTranslation> from_iommu_hop_{ctx_.eq, *this};
};

} // namespace gvc

#endif // GVC_MMU_CU_TRANSLATION_HH
