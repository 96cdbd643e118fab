/**
 * @file
 * Baseline MMU design (§2.1, Figure 1): physically-tagged caches behind
 * per-CU TLBs; misses travel to the shared, bandwidth-limited IOMMU TLB
 * over a PCIe-protocol path; IOMMU misses engage the 16-thread page-table
 * walker with its page-walk cache.
 *
 * Matching the paper's accounting (Figure 3 equates IOMMU TLB accesses
 * with per-CU TLB misses), concurrent misses to the same page are not
 * merged by default; an optional merge mode exists for ablation.
 *
 * Also hosts the Figure 2 instrumentation: every per-CU TLB miss is
 * classified by where the data currently resides (L1 hit / L2 hit / L2
 * miss) via side-effect-free presence probes.
 */

#ifndef GVC_MMU_BASELINE_SYSTEM_HH
#define GVC_MMU_BASELINE_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "gpu/cu.hh"
#include "mem/vm.hh"
#include "mmu/boundary.hh"
#include "mmu/injection.hh"
#include "mmu/phys_caches.hh"
#include "tlb/iommu.hh"
#include "tlb/tlb.hh"

namespace gvc
{

/** Figure 2 classification counters. */
struct TlbMissBreakdown
{
    std::uint64_t miss_l1_hit = 0;
    std::uint64_t miss_l2_hit = 0;
    std::uint64_t miss_l2_miss = 0;

    std::uint64_t
    total() const
    {
        return miss_l1_hit + miss_l2_hit + miss_l2_miss;
    }
};

/** The baseline physical-cache MMU design. */
class BaselineMmuSystem final : public GpuMemInterface
{
  public:
    /**
     * @param merge_tlb_misses  Merge concurrent per-CU TLB misses to the
     *        same page into one IOMMU request (ablation; default off to
     *        match the paper's accounting).
     */
    BaselineMmuSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                      Dram &dram, bool merge_tlb_misses = false)
        : ctx_(ctx), cfg_(cfg), vm_(vm), caches_(ctx, cfg, dram, reqs_),
          iommu_(ctx, vm, dram, cfg.iommuParams()),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate),
          merge_tlb_misses_(merge_tlb_misses)
    {
        tlbs_.reserve(cfg.gpu.num_cus);
        for (unsigned i = 0; i < cfg.gpu.num_cus; ++i) {
            tlbs_.push_back(std::make_unique<Tlb>(
                TlbParams{cfg.percu_tlb_entries, cfg.percu_tlb_assoc,
                          cfg.percu_tlb_infinite, cfg.track_lifetimes,
                          cfg.translation_memo, cfg.tlb_max_reach,
                          cfg.tlb_merge_on_insert,
                          cfg.percu_tlb_fill_policy,
                          cfg.tlb_replacement}));
            if (cfg.victima_stash) {
                tlbs_.back()->setEvictHook(
                    [this](Asid asid, Vpn vpn, Ppn ppn, Perms perms) {
                        stashInsert(asid, vpn, ppn, perms);
                    });
            }
        }
        vm.addPageShootdownListener([this](Asid asid, Vpn vpn) {
            for (auto &tlb : tlbs_)
                tlb->invalidatePage(asid, vpn, ctx_.now());
            stashInvalidatePage(asid, vpn);
        });
        vm.addFullShootdownListener([this](Asid asid) {
            for (auto &tlb : tlbs_)
                tlb->invalidateAsid(asid, ctx_.now());
            stashInvalidateAsid(asid);
        });
    }

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        MemRequest *req =
            reqs_.make(cu_id, asid, line_va, is_store, std::move(done));
        injection_.inject(cu_id, [this, req] {
            ctx_.eq.scheduleIn(cfg_.percu_tlb_latency,
                               [this, req] { afterTlb(req); });
        });
    }

    /** Accesses issued and not yet completed. */
    std::size_t requestsInFlight() const { return reqs_.inFlight(); }

    Tlb &perCuTlb(unsigned cu) { return *tlbs_[cu]; }
    const Tlb &perCuTlb(unsigned cu) const { return *tlbs_[cu]; }

    /** Fold per-CU TLB entry reference counts into @p percu. */
    void
    collectTlbRefs(TlbRefHist &percu)
    {
        for (auto &tlb : tlbs_) {
            tlb->flushResidentRefs();
            percu.merge(tlb->refHist());
        }
    }

    Iommu &iommu() { return iommu_; }
    const Iommu &iommu() const { return iommu_; }
    PhysCaches &caches() { return caches_; }
    const PhysCaches &caches() const { return caches_; }
    const TlbMissBreakdown &breakdown() const { return breakdown_; }
    const SocConfig &config() const { return cfg_; }

    /** Aggregate per-CU TLB accesses across CUs. */
    std::uint64_t
    tlbAccesses() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->accesses();
        return n;
    }

    /** Aggregate per-CU TLB misses across CUs. */
    std::uint64_t
    tlbMisses() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->misses();
        return n;
    }

    double
    tlbMissRatio() const
    {
        const auto acc = tlbAccesses();
        return acc ? double(tlbMisses()) / double(acc) : 0.0;
    }

    /** Aggregate per-CU reach-entry (reach > 0) hits across CUs. */
    std::uint64_t
    tlbReachHits() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->reachHits();
        return n;
    }

    /** Aggregate per-CU reach-entry fills across CUs. */
    std::uint64_t
    tlbReachFills() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->reachFills();
        return n;
    }

    /** Aggregate per-CU buddy merges across CUs. */
    std::uint64_t
    tlbMerges() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->merges();
        return n;
    }

    /** Aggregate per-CU predicted-dead fill bypasses across CUs. */
    std::uint64_t
    tlbFillBypasses() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->fillBypasses();
        return n;
    }

    /** Aggregate per-CU dead-first evictions across CUs. */
    std::uint64_t
    tlbDeadFirstEvictions() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->deadFirstEvictions();
        return n;
    }

    /** Aggregate per-CU predictor true positives across CUs. */
    std::uint64_t
    tlbPredTruePos() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->predTruePos();
        return n;
    }

    /** Aggregate per-CU predictor false positives across CUs. */
    std::uint64_t
    tlbPredFalsePos() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tlbs_)
            n += t->predFalsePos();
        return n;
    }

    std::uint64_t victimaStashes() const { return victima_stashes_.value; }
    std::uint64_t victimaProbes() const { return victima_probes_.value; }
    std::uint64_t victimaHits() const { return victima_hits_.value; }

    /**
     * Kernel boundary (§4).  A shootdown invalidates the translation
     * path end to end (per-CU TLBs, IOMMU TLB, page-walk cache) but the
     * physically-tagged caches legally survive it — the baseline's data
     * is immune to address-space changes, which is exactly the warm-path
     * asymmetry versus the VC designs that fig_warm measures.
     */
    void
    applyBoundary(const BoundaryPolicy &p)
    {
        caches_.boundaryFlush(p.flush_l1, p.flush_l2);
        if (p.flush_l2)
            stash_.clear(); // The array already dropped the lines.
        if (p.shootdown_tlbs) {
            for (auto &tlb : tlbs_)
                tlb->invalidateAll(ctx_.now());
            iommu_.invalidateAll();
            iommu_.ptw().pwc().invalidateAll();
            // The stash is translation state and dies with the TLBs.
            dropStash();
        }
    }

  private:
    void
    afterTlb(MemRequest *req)
    {
        const unsigned cu_id = req->cu;
        const Asid asid = req->asid;
        const Vpn vpn = req->vpn;
        if (auto hit = tlbs_[cu_id]->lookup(asid, vpn, ctx_.now())) {
            proceed(req, hit->ppn);
            return;
        }

        if (cfg_.classify_tlb_misses)
            classify(cu_id, asid, req->line_va);

        // Victima-style stash probe: before paying the PCIe hop to the
        // IOMMU, check whether an earlier capacity eviction parked this
        // translation in the L2 data array.  The side map makes the
        // probe precise — only addresses we actually stashed reach the
        // array — so baseline configurations (victima_stash off) never
        // touch the L2 here.
        if (cfg_.victima_stash) {
            const auto it = stash_.find(stashAddr(asid, vpn));
            if (it != stash_.end()) {
                ++victima_probes_;
                const Paddr addr = it->first;
                if (caches_.l2().access(0, addr, false, ctx_.now())) {
                    // Hit: re-promote the translation into the TLB and
                    // consume the stash copy.  Cost is one L2 round
                    // trip instead of the full IOMMU translation.
                    ++victima_hits_;
                    req->resp.ppn = it->second.ppn;
                    req->resp.perms = it->second.perms;
                    stash_.erase(it);
                    caches_.l2().invalidateLine(0, addr);
                    const Tick lat = 2 * cfg_.cu_to_l2 + cfg_.l2_latency;
                    ctx_.eq.scheduleIn(lat, [this, req] {
                        tlbs_[req->cu]->insert(
                            req->asid, req->vpn,
                            TlbLookup{req->resp.ppn, req->resp.perms,
                                      false},
                            ctx_.now());
                        proceed(req, req->resp.ppn);
                    });
                    return;
                }
                // The stash line was silently displaced by an ordinary
                // data fill; drop the stale side entry and walk.  (Such
                // misses are rare; their probe latency is folded into
                // the much longer IOMMU path below.)
                stash_.erase(it);
            }
        }

        if (merge_tlb_misses_) {
            // One IOMMU request per (CU, page); later misses queue
            // behind the first on its xlate_next chain.
            auto [it, fresh] = pending_.try_emplace(mergeKey(req));
            it->second.append(req);
            if (!fresh)
                return;
        }

        // Unmerged: each miss is one IOMMU request (paper accounting).
        ctx_.eq.scheduleIn(cfg_.cu_to_iommu, [this, req] {
            iommu_.translate(
                req->asid, req->vpn,
                [this, req](const IommuResponse &resp) {
                    req->resp = resp;
                    ctx_.eq.scheduleIn(cfg_.cu_to_iommu,
                                       [this, req] { onTranslation(req); });
                });
        });
    }

    /**
     * The IOMMU answered @p req's translation: fill the per-CU TLB and
     * send @p req — with every request merged behind it — to the
     * caches.
     */
    void
    onTranslation(MemRequest *req)
    {
        if (req->resp.fault)
            fatal("BaselineMmuSystem: unhandled GPU page fault");
        const IommuResponse &resp = req->resp;
        tlbs_[req->cu]->insert(req->asid, req->vpn,
                               TlbLookup{resp.ppn, resp.perms, resp.large,
                                         resp.reach, resp.base_vpn,
                                         resp.base_ppn},
                               ctx_.now());
        if (!merge_tlb_misses_) {
            proceed(req, resp.ppn);
            return;
        }
        const Ppn ppn = resp.ppn;
        auto node = pending_.extract(mergeKey(req));
        node.mapped().forEach(
            [this, ppn](MemRequest *w) { proceed(w, ppn); });
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

    void
    stashInvalidatePage(Asid asid, Vpn vpn)
    {
        if (stash_.empty())
            return;
        const Paddr addr = stashAddr(asid, vpn);
        if (stash_.erase(addr))
            caches_.l2().invalidateLine(0, addr);
    }

    void
    stashInvalidateAsid(Asid asid)
    {
        for (auto it = stash_.begin(); it != stash_.end();) {
            if (Asid((it->first >> 44) & 0xffff) == asid) {
                caches_.l2().invalidateLine(0, it->first);
                it = stash_.erase(it);
            } else {
                ++it;
            }
        }
    }

    /** TLB-path shootdown of the stash (kernel boundary). */
    void
    dropStash()
    {
        for (const auto &kv : stash_)
            caches_.l2().invalidateLine(0, kv.first);
        stash_.clear();
    }

    void
    proceed(MemRequest *req, Ppn ppn)
    {
        req->line_pa =
            pageBase(ppn) | (req->line_va & kPageMask & ~kLineMask);
        caches_.accessL1(req);
    }

    /** Figure 2: classify a TLB miss by current data residency. */
    void
    classify(unsigned cu_id, Asid asid, Vaddr line_va)
    {
        const auto t = vm_.translate(asid, line_va);
        if (!t)
            return;
        const Paddr line_pa =
            pageBase(t->ppn) | (line_va & kPageMask & ~kLineMask);
        if (caches_.l1(cu_id).present(0, line_pa))
            ++breakdown_.miss_l1_hit;
        else if (caches_.l2().present(0, line_pa))
            ++breakdown_.miss_l2_hit;
        else
            ++breakdown_.miss_l2_miss;
    }

    /** Payload of a stashed translation, keyed by stash line address. */
    struct StashEntry
    {
        Ppn ppn;
        Perms perms;
    };

    SimContext &ctx_;
    SocConfig cfg_;
    Vm &vm_;
    RequestPool reqs_;
    PhysCaches caches_;
    Iommu iommu_;
    CuInjectionPorts injection_;
    bool merge_tlb_misses_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::unordered_map<std::uint64_t, XlateChain> pending_;
    TlbMissBreakdown breakdown_;
    /// Victima side map: stash line address -> stashed translation.
    std::unordered_map<Paddr, StashEntry> stash_;
    Counter victima_stashes_;
    Counter victima_probes_;
    Counter victima_hits_;
};

} // namespace gvc

#endif // GVC_MMU_BASELINE_SYSTEM_HH
