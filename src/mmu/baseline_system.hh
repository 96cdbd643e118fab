/**
 * @file
 * Baseline MMU design (§2.1, Figure 1): physically-tagged caches behind
 * per-CU TLBs; misses travel to the shared, bandwidth-limited IOMMU TLB
 * over a PCIe-protocol path; IOMMU misses engage the 16-thread page-table
 * walker with its page-walk cache.  That whole translation path, with
 * the Victima stash and the ablation's miss merging, is the per-CU
 * translation stage (mmu/cu_translation.hh); this file adds the
 * physical caches behind it.
 *
 * Also hosts the Figure 2 instrumentation: every per-CU TLB miss is
 * classified by where the data currently resides (L1 hit / L2 hit / L2
 * miss) via side-effect-free presence probes.
 */

#ifndef GVC_MMU_BASELINE_SYSTEM_HH
#define GVC_MMU_BASELINE_SYSTEM_HH

#include "gpu/cu.hh"
#include "mem/vm.hh"
#include "mmu/boundary.hh"
#include "mmu/cu_translation.hh"
#include "mmu/injection.hh"
#include "mmu/mmu_system.hh"
#include "mmu/phys_caches.hh"

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
class BaselineMmuSystem final : public MmuSystem
{
  public:
    /**
     * @param merge_tlb_misses  Merge concurrent per-CU TLB misses to the
     *        same page into one IOMMU request (ablation; default off to
     *        match the paper's accounting).
     */
    BaselineMmuSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                      Dram &dram, bool merge_tlb_misses = false)
        : vm_(vm), classify_(cfg.classify_tlb_misses),
          caches_(ctx, cfg, dram, reqs_),
          xlat_(*this, ctx, cfg, vm, dram, caches_, merge_tlb_misses,
                cfg.victima_stash),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate)
    {
    }

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        MemRequest *req =
            reqs_.make(cu_id, asid, line_va, is_store, std::move(done));
        injection_.inject(cu_id, [this, req] { xlat_.translate(req); });
    }

    std::size_t requestsInFlight() const override { return reqs_.inFlight(); }

    Iommu *iommu() override { return &xlat_.iommu(); }
    PerCuTlbs *perCuTlbs() override { return &xlat_.tlbs(); }
    CacheArray &l1(unsigned cu) override { return caches_.l1(cu); }
    CacheArray &l2() override { return caches_.l2(); }
    void flushLifetimes() override { caches_.flushLifetimes(); }
    PhysCaches &caches() { return caches_; }
    const PhysCaches &caches() const { return caches_; }

    /**
     * Kernel boundary (§4).  A shootdown invalidates the translation
     * path end to end (per-CU TLBs, stash, IOMMU TLB, page-walk cache)
     * but the physically-tagged caches legally survive it — the
     * baseline's data is immune to address-space changes, which is
     * exactly the warm-path asymmetry versus the VC designs that
     * fig_warm measures.
     */
    void
    applyBoundary(const BoundaryPolicy &p) override
    {
        caches_.boundaryFlush(p.flush_l1, p.flush_l2);
        xlat_.applyBoundary(p);
    }

    void
    stats(StatSink &s) const override
    {
        caches_.stats(s);
        xlat_.stats(s);
        xlat_.stashStats(s);
        s("tlb_breakdown.miss_l1_hit", breakdown_.miss_l1_hit);
        s("tlb_breakdown.miss_l2_hit", breakdown_.miss_l2_hit);
        s("tlb_breakdown.miss_l2_miss", breakdown_.miss_l2_miss);
    }

  private:
    /** @p req is translated: access the physical caches. */
    void translated(MemRequest *req) { caches_.accessL1(req); }

    /** Figure 2: classify a TLB miss by current data residency. */
    void
    classify(const MemRequest *req)
    {
        if (!classify_)
            return;
        const auto t = vm_.translate(req->asid, req->line_va);
        if (!t)
            return;
        const Paddr line_pa =
            pageBase(t->ppn) | (req->line_va & kPageMask & ~kLineMask);
        if (caches_.l1(req->cu).present(0, line_pa))
            ++breakdown_.miss_l1_hit;
        else if (caches_.l2().present(0, line_pa))
            ++breakdown_.miss_l2_hit;
        else
            ++breakdown_.miss_l2_miss;
    }

    using Self = BaselineMmuSystem;
    Vm &vm_;
    const bool classify_;
    RequestPool reqs_;
    PhysCaches caches_;
    CuTranslation<Self, &Self::translated, &Self::classify> xlat_;
    CuInjectionPorts injection_;
    TlbMissBreakdown breakdown_;
};

} // namespace gvc

#endif // GVC_MMU_BASELINE_SYSTEM_HH
