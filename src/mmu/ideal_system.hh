/**
 * @file
 * IDEAL MMU design (§3, Figure 4): translation with infinite capacity,
 * infinite bandwidth, and minimal latency.  Modeled as free, immediate
 * translation in front of the physical cache pipeline, which upper-bounds
 * every realizable MMU and matches the paper's normalization target.
 */

#ifndef GVC_MMU_IDEAL_SYSTEM_HH
#define GVC_MMU_IDEAL_SYSTEM_HH

#include "gpu/cu.hh"
#include "mem/vm.hh"
#include "mmu/boundary.hh"
#include "mmu/injection.hh"
#include "mmu/mmu_system.hh"
#include "mmu/phys_caches.hh"

namespace gvc
{

/** Physical hierarchy with zero-cost address translation. */
class IdealMmuSystem final : public MmuSystem
{
  public:
    IdealMmuSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                   Dram &dram)
        : vm_(vm), caches_(ctx, cfg, dram, reqs_),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate)
    {
    }

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        const auto t = vm_.translate(asid, line_va);
        if (!t)
            fatal("IdealMmuSystem: access to unmapped address");
        MemRequest *req =
            reqs_.make(cu_id, asid, line_va, is_store, std::move(done));
        req->line_pa =
            pageBase(t->ppn) | (line_va & kPageMask & ~kLineMask);
        injection_.inject(cu_id, [this, req] { caches_.accessL1(req); });
    }

    std::size_t requestsInFlight() const override { return reqs_.inFlight(); }

    PhysCaches &caches() { return caches_; }
    const PhysCaches &caches() const { return caches_; }
    CacheArray &l1(unsigned cu) override { return caches_.l1(cu); }
    CacheArray &l2() override { return caches_.l2(); }
    void flushLifetimes() override { caches_.flushLifetimes(); }

    /**
     * Kernel boundary (§4).  Translation is free here, so only the cache
     * flags matter; a TLB shootdown is a no-op by construction.
     */
    void
    applyBoundary(const BoundaryPolicy &p) override
    {
        caches_.boundaryFlush(p.flush_l1, p.flush_l2);
    }

  private:
    Vm &vm_;
    RequestPool reqs_;
    PhysCaches caches_;
    CuInjectionPorts injection_;
};

} // namespace gvc

#endif // GVC_MMU_IDEAL_SYSTEM_HH
