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

#include <unordered_map>

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
        : ctx_(ctx), cfg_(cfg), vm_(vm), caches_(ctx, cfg, dram, reqs_),
          iommu_(ctx, vm, dram, cfg.iommuParams()),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate),
          merge_tlb_misses_(merge_tlb_misses), tlbs_(cfg)
    {
        if (cfg.victima_stash) {
            for (unsigned cu = 0; cu < tlbs_.size(); ++cu)
                tlbs_[cu].setEvictHook(
                    [this](Asid asid, Vpn vpn, Ppn ppn, Perms perms) {
                        stashInsert(asid, vpn, ppn, perms);
                    });
        }
        vm.addPageShootdownListener([this](Asid asid, Vpn vpn) {
            tlbs_.invalidatePage(asid, vpn, ctx_.now());
            stashInvalidatePage(asid, vpn);
        });
        vm.addFullShootdownListener([this](Asid asid) {
            tlbs_.invalidateAsid(asid, ctx_.now());
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

    std::size_t requestsInFlight() const override { return reqs_.inFlight(); }

    Iommu *iommu() override { return &iommu_; }
    PerCuTlbs *perCuTlbs() override { return &tlbs_; }
    CacheArray &l1(unsigned cu) override { return caches_.l1(cu); }
    CacheArray &l2() override { return caches_.l2(); }
    void flushLifetimes() override { caches_.flushLifetimes(); }
    PhysCaches &caches() { return caches_; }
    const PhysCaches &caches() const { return caches_; }
    const TlbMissBreakdown &breakdown() const { return breakdown_; }

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
    applyBoundary(const BoundaryPolicy &p) override
    {
        caches_.boundaryFlush(p.flush_l1, p.flush_l2);
        if (p.flush_l2)
            stash_.clear(); // The array already dropped the lines.
        if (p.shootdown_tlbs) {
            tlbs_.invalidateAll(ctx_.now());
            iommu_.invalidateAll();
            iommu_.ptw().pwc().invalidateAll();
            // The stash is translation state and dies with the TLBs.
            dropStash();
        }
    }

    void
    registerStats(StatRegistry &reg) override
    {
        const PerCuTlbs *tlbs = &tlbs_;
        const auto percu = [&](const char *name,
                               std::uint64_t (Tlb::*counter)() const) {
            reg.addScalar(name, [tlbs, counter] {
                return double(tlbs->sum(counter));
            });
        };
        percu("percu_tlb.accesses", &Tlb::accesses);
        percu("percu_tlb.misses", &Tlb::misses);
        reg.addScalar("l2.hit_ratio",
                      [this] { return caches_.l2().hitRatio(); });
        reg.addScalar("directory.probes", [this] {
            return double(caches_.directory().probesSent());
        });
        // Reach/stash scalars appear only when the feature is on,
        // keeping classic designs' stat dumps byte-identical.
        if (cfg_.tlb_max_reach > 0) {
            percu("percu_tlb.reach_hits", &Tlb::reachHits);
            percu("percu_tlb.reach_fills", &Tlb::reachFills);
            percu("percu_tlb.merges", &Tlb::merges);
        }
        if (cfg_.percu_tlb_fill_policy != kTlbFillLru)
            percu("percu_tlb.fill_bypasses", &Tlb::fillBypasses);
        if (cfg_.percu_tlb_fill_policy == kTlbFillBypassTrained) {
            percu("percu_tlb.dead_first_evictions",
                  &Tlb::deadFirstEvictions);
            percu("percu_tlb.pred_true_pos", &Tlb::predTruePos);
            percu("percu_tlb.pred_false_pos", &Tlb::predFalsePos);
        }
        if (cfg_.victima_stash) {
            reg.addCounter("victima.stashes", &victima_stashes_);
            reg.addCounter("victima.probes", &victima_probes_);
            reg.addCounter("victima.hits", &victima_hits_);
        }
    }

  private:
    void
    afterTlb(MemRequest *req)
    {
        const unsigned cu_id = req->cu;
        const Asid asid = req->asid;
        const Vpn vpn = req->vpn;
        if (auto hit = tlbs_[cu_id].lookup(asid, vpn, ctx_.now())) {
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
                        tlbs_[req->cu].insert(
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
        tlbs_[req->cu].insert(req->asid, req->vpn,
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
    PerCuTlbs tlbs_;
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
