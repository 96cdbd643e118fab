/**
 * @file
 * L1-only virtual cache design (§5.4): virtually-tagged per-CU L1s in
 * front of per-CU TLBs and a physically-tagged shared L2.  This mirrors
 * classic CPU virtual-L1 proposals: L1 hits skip translation entirely,
 * but every L1 miss still needs the TLB before reaching the physical L2.
 *
 * Synonym correctness uses a line-granularity leading-address registry
 * (in the spirit of the ASDT): the first virtual name to cache a
 * physical line becomes its leading name; accesses under other names
 * replay with the leading name.  The registry is functional bookkeeping
 * — the paper's workloads exhibit no synonyms, so it adds no timing.
 */

#ifndef GVC_MMU_L1VC_SYSTEM_HH
#define GVC_MMU_L1VC_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "gpu/cu.hh"
#include "mem/vm.hh"
#include "mmu/boundary.hh"
#include "mmu/injection.hh"
#include "mmu/mmu_system.hh"
#include "mmu/per_cu_tlbs.hh"
#include "mmu/phys_caches.hh"
#include "tlb/iommu.hh"

namespace gvc
{

/** Leading virtual name per physical line, refcounted across L1s. */
class LineLeadingRegistry
{
  public:
    struct Leading
    {
        Asid asid;
        Vaddr line_va;
    };

    /** Current leading name of a physical line, if any copy is cached. */
    std::optional<Leading>
    lookup(Paddr line_pa) const
    {
        auto it = map_.find(line_pa >> kLineShift);
        if (it == map_.end())
            return std::nullopt;
        return Leading{it->second.asid, it->second.line_va};
    }

    /** A copy of @p line_pa was cached under (asid, line_va). */
    void
    fill(Paddr line_pa, Asid asid, Vaddr line_va)
    {
        auto &e = map_[line_pa >> kLineShift];
        if (e.refs == 0) {
            e.asid = asid;
            e.line_va = line_va;
        }
        ++e.refs;
    }

    /** One cached copy of @p line_pa went away. */
    void
    evict(Paddr line_pa)
    {
        auto it = map_.find(line_pa >> kLineShift);
        if (it == map_.end())
            return;
        if (--it->second.refs == 0)
            map_.erase(it);
    }

    std::size_t size() const { return map_.size(); }

    /** Forget every leading name (the L1s were fully invalidated). */
    void clear() { map_.clear(); }

  private:
    struct Entry
    {
        Asid asid = 0;
        Vaddr line_va = 0;
        std::uint32_t refs = 0;
    };

    std::unordered_map<std::uint64_t, Entry> map_;
};

/** The L1-only virtual cache design. */
class L1OnlyVcSystem final : public MmuSystem
{
  public:
    L1OnlyVcSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                   Dram &dram)
        : ctx_(ctx), cfg_(cfg), vm_(vm),
          caches_(ctx, cfg, dram, reqs_,
                  [this](MemRequest *req) { l2Returned(req); }),
          iommu_(ctx, vm, dram, cfg.iommuParams()), tlbs_(cfg),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate)
    {
        for (unsigned i = 0; i < cfg.gpu.num_cus; ++i) {
            l1s_.push_back(std::make_unique<CacheArray>(
                CacheParams{cfg.l1_size, cfg.l1_assoc, unsigned(kLineSize),
                            /*write_back=*/false, /*write_allocate=*/false,
                            cfg.track_lifetimes}));
        }
        vm.addPageShootdownListener([this](Asid asid, Vpn vpn) {
            tlbs_.invalidatePage(asid, vpn, ctx_.now());
            for (auto &l1 : l1s_) {
                l1->invalidatePage(
                    asid, pageBase(vpn), [this](const CacheLineInfo &info) {
                        registryEvict(info.asid, info.line_addr);
                    });
            }
        });
        // Full-AS shootdown: the virtual L1s cache lines under this
        // ASID's names, so they must drop whenever its translations do
        // (same rule as the per-page path above, whole address space).
        vm.addFullShootdownListener([this](Asid asid) {
            tlbs_.invalidateAsid(asid, ctx_.now());
            for (auto &l1 : l1s_) {
                l1->invalidateAsid(asid, [this](const CacheLineInfo &info) {
                    registryEvict(info.asid, info.line_addr);
                });
            }
        });
    }

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        issue(reqs_.make(cu_id, asid, line_va, is_store, std::move(done)));
    }

    std::size_t requestsInFlight() const override { return reqs_.inFlight(); }

    Iommu *iommu() override { return &iommu_; }
    PerCuTlbs *perCuTlbs() override { return &tlbs_; }
    /** The virtual L1 of @p cu. */
    CacheArray &l1(unsigned cu) override { return *l1s_[cu]; }
    CacheArray &l2() override { return caches_.l2(); }
    PhysCaches &caches() { return caches_; }
    LineLeadingRegistry &registry() { return registry_; }

    std::uint64_t synonymReplays() const override
    {
        return synonym_replays_.value;
    }

    void
    flushLifetimes() override
    {
        for (auto &l1 : l1s_)
            l1->flushLifetimes();
        caches_.l2().flushLifetimes();
    }

    /**
     * Kernel boundary (§4).  The virtual L1s must go whenever their
     * address space does: a TLB shootdown here also drops the L1s and
     * the leading-name registry (which tracks only L1 contents).  The
     * physical L2 follows the baseline rules and may survive.
     */
    void
    applyBoundary(const BoundaryPolicy &p) override
    {
        if (p.flush_l1 || p.shootdown_tlbs) {
            for (auto &l1 : l1s_)
                l1->invalidateAll();
            registry_.clear();
        }
        caches_.boundaryFlush(false, p.flush_l2);
        if (p.shootdown_tlbs) {
            tlbs_.invalidateAll(ctx_.now());
            iommu_.invalidateAll();
            iommu_.ptw().pwc().invalidateAll();
        }
    }

    void
    registerStats(StatRegistry &reg) override
    {
        reg.addCounter("l1vc.synonym_replays", &synonym_replays_);
        reg.addScalar("l1vc.registry_lines",
                      [this] { return double(registry_.size()); });
    }

  private:
    void
    issue(MemRequest *req)
    {
        injection_.inject(req->cu, [this, req] {
            ctx_.eq.scheduleIn(cfg_.l1_latency,
                               [this, req] { l1Access(req); });
        });
    }

    void
    l1Access(MemRequest *req)
    {
        CacheArray &l1 = *l1s_[req->cu];
        const auto way = l1.lookup(req->asid, req->line_va);
        if (way &&
            (!req->is_store || permsAllow(way->perms, kPermWrite))) {
            l1.recordHit(*way, req->is_store, ctx_.now());
            if (!req->is_store) {
                reqs_.finish(req);
                return;
            }
            // Store hit: write through; translation still needed for
            // the physical L2.
        } else if (!way) {
            l1.recordMiss(false);
        }
        ctx_.eq.scheduleIn(cfg_.percu_tlb_latency,
                           [this, req] { tlbStage(req); });
    }

    void
    tlbStage(MemRequest *req)
    {
        if (auto hit =
                tlbs_[req->cu].lookup(req->asid, req->vpn, ctx_.now())) {
            req->resp.perms = hit->perms;
            translated(req, hit->ppn);
            return;
        }
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

    void
    onTranslation(MemRequest *req)
    {
        const IommuResponse &resp = req->resp;
        if (resp.fault)
            fatal("L1OnlyVcSystem: unhandled GPU page fault");
        tlbs_[req->cu].insert(req->asid, req->vpn,
                              TlbLookup{resp.ppn, resp.perms, resp.large,
                                        resp.reach, resp.base_vpn,
                                        resp.base_ppn},
                              ctx_.now());
        translated(req, resp.ppn);
    }

    /** @p req->resp.perms holds the page permissions from translation. */
    void
    translated(MemRequest *req, Ppn ppn)
    {
        req->line_pa =
            pageBase(ppn) | (req->line_va & kPageMask & ~kLineMask);

        // Synonym discipline: the L1s may cache a physical line under a
        // single leading virtual name only.
        if (const auto leading = registry_.lookup(req->line_pa)) {
            if (leading->asid != req->asid ||
                leading->line_va != req->line_va) {
                ++synonym_replays_;
                req->asid = leading->asid;
                req->line_va = leading->line_va;
                req->vpn = pageOf(leading->line_va);
                issue(req);
                return;
            }
        }

        req->fill_l1 = false; // the L1s are virtual: filled on return
        caches_.accessL2(req);
    }

    /** The physical L2 returned @p req's line: fill the virtual L1. */
    void
    l2Returned(MemRequest *req)
    {
        if (!req->is_store)
            fillL1(req->cu, req->asid, req->line_va, req->line_pa,
                   req->resp.perms);
        reqs_.finish(req);
    }

    void
    fillL1(unsigned cu_id, Asid asid, Vaddr line_va, Paddr line_pa,
           Perms perms)
    {
        const CacheFill fill = l1s_[cu_id]->insertIfAbsent(
            asid, line_va, perms, false, ctx_.now());
        if (!fill.inserted)
            return; // a racing fill landed first; refs already counted
        registry_.fill(line_pa, asid, line_va);
        if (fill.victim)
            registryEvict(fill.victim->asid, fill.victim->line_addr);
    }

    /** Translate a victim's virtual name to drop its registry ref. */
    void
    registryEvict(Asid asid, Vaddr line_va)
    {
        const auto t = vm_.translate(asid, line_va);
        if (!t)
            return; // unmapped while cached; shootdown already purged
        const Paddr line_pa =
            pageBase(t->ppn) | (line_va & kPageMask & ~kLineMask);
        registry_.evict(line_pa);
    }

    SimContext &ctx_;
    SocConfig cfg_;
    Vm &vm_;
    RequestPool reqs_;
    PhysCaches caches_;
    Iommu iommu_;
    std::vector<std::unique_ptr<CacheArray>> l1s_;
    PerCuTlbs tlbs_;
    LineLeadingRegistry registry_;
    CuInjectionPorts injection_;
    Counter synonym_replays_;
};

} // namespace gvc

#endif // GVC_MMU_L1VC_SYSTEM_HH
