/**
 * @file
 * The proposed GPU virtual cache hierarchy (§4, Figure 6).
 *
 * Both GPU cache levels are virtually indexed and virtually tagged
 * (VA + ASID tags, per-line permissions); there are no per-CU TLBs.
 * Translation happens only on L2 misses, at the IOMMU: the small shared
 * TLB (rate-limited port), optionally the FBT's forward table as a
 * second-level TLB ("With OPT"), then the multi-threaded walker.  The BT
 * is consulted with the resulting PPN to detect synonyms and enforce the
 * unique-leading-VA placement rule; read-only synonyms replay with the
 * leading VA, read-write synonyms raise a (recorded) fault.  FBT entry
 * displacement and TLB shootdowns purge the caches: selectively in the
 * L2 via the bit vectors, and via the per-L1 invalidation filters (full
 * L1 flush on filter hit — the L1s are write-through, so no writebacks).
 */

#ifndef GVC_CORE_VIRTUAL_HIERARCHY_HH
#define GVC_CORE_VIRTUAL_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/bank_port.hh"
#include "cache/cache_array.hh"
#include "cache/directory.hh"
#include "cache/mshr.hh"
#include "core/fbt.hh"
#include "core/invalidation_filter.hh"
#include "core/synonym_remap.hh"
#include "gpu/cu.hh"
#include "mem/dram.hh"
#include "mem/vm.hh"
#include "sim/debug.hh"
#include "sim/set_index.hh"
#include "mmu/boundary.hh"
#include "mmu/injection.hh"
#include "mmu/mem_request.hh"
#include "mmu/mmu_system.hh"
#include "mmu/soc_config.hh"
#include "tlb/iommu.hh"

namespace gvc
{

/** Outcome of an external coherence probe routed through the BT. */
struct ProbeResult
{
    bool filtered = false; ///< No BT entry: GPU cannot hold the line.
    /** BT entry exists but neither the L2 bit-vector nor any L1
     *  invalidation filter covers the line: no cache was touched. */
    bool line_filtered = false;
    bool line_present = false;
    bool invalidated = false;
    bool was_dirty = false; ///< The invalidated copy held dirty data.
};

/** The full virtual cache hierarchy (L1 + L2 virtual, FBT in IOMMU). */
class VirtualCacheSystem final : public MmuSystem
{
  public:
    VirtualCacheSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                       Dram &dram)
        : ctx_(ctx), cfg_(cfg), dram_(dram), vm_(vm),
          dir_(ctx, dram, Directory::Params{cfg.dir_latency}),
          l2_(CacheParams{cfg.l2_size, cfg.l2_assoc, unsigned(kLineSize),
                          /*write_back=*/true, /*write_allocate=*/true,
                          cfg.track_lifetimes}),
          fbt_(cfg.fbt), iommu_(ctx, vm, dram, cfg.iommuParams()),
          remap_(cfg.synonym_remap_entries),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate)
    {
        // Directory probes reach the GPU through the backward table.
        dir_.setProbeSink(DirNode::kGpu, [this](Paddr line, bool inv) {
            const ProbeResult r = coherenceProbe(line, inv);
            return ProbeOutcome{r.line_present, r.was_dirty};
        });
        for (unsigned i = 0; i < cfg.gpu.num_cus; ++i) {
            l1s_.push_back(std::make_unique<CacheArray>(
                CacheParams{cfg.l1_size, cfg.l1_assoc, unsigned(kLineSize),
                            /*write_back=*/false, /*write_allocate=*/false,
                            cfg.track_lifetimes}));
            filters_.push_back(std::make_unique<InvalidationFilter>());
        }
        banks_.reserve(cfg.l2_banks);
        for (unsigned i = 0; i < cfg.l2_banks; ++i)
            banks_.emplace_back(1.0);
        l2_bank_ = SetIndex(cfg.l2_banks);

        if (cfg.fbt_as_second_level_tlb) {
            iommu_.setSecondLevel([this](Asid asid, Vpn vpn) {
                return fbt_.forwardLookup(asid, vpn);
            });
        }

        vm.addPageShootdownListener([this](Asid asid, Vpn vpn) {
            remap_.dropSource(asid, vpn);
            if (auto page = fbt_.shootdownPage(asid, vpn))
                purgePage(*page);
        });
        vm.addFullShootdownListener([this](Asid asid) {
            for (const auto &page : fbt_.shootdownAll(asid))
                purgePage(page);
        });
    }

    // ---------------------------------------------------------------
    // GpuMemInterface
    // ---------------------------------------------------------------

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        // §4.3 extension: rewrite known synonyms to their leading name
        // before the L1 lookup, so they hit the caches directly.
        if (auto t = remap_.lookup(asid, pageOf(line_va))) {
            asid = t->leading_asid;
            line_va = pageBase(t->leading_vpn) |
                      (line_va & kPageMask & ~kLineMask);
        }
        MemRequest *req =
            reqs_.make(cu_id, asid, line_va, is_store, std::move(done));
        injection_.inject(cu_id, [this, req] {
            l1_hop_.in(cfg_.l1_latency, req);
        });
    }

    /** Accesses issued and not yet completed (synonym replays too). */
    std::size_t requestsInFlight() const override { return reqs_.inFlight(); }

    // ---------------------------------------------------------------
    // Coherence requests from the CPU / directory (§4.1)
    // ---------------------------------------------------------------

    /**
     * Route a physical-address coherence probe through the BT.  A BT
     * miss filters the probe (the GPU caches cannot hold the line).
     * When @p invalidate is set, a present line is removed from the L2
     * (writing back if dirty) and the L1 filters are consulted.
     */
    ProbeResult
    coherenceProbe(Paddr line_pa, bool invalidate)
    {
        ProbeResult out;
        const auto r =
            fbt_.reverseLookup(frameOf(line_pa), lineInPage(line_pa));
        if (!r.present) {
            out.filtered = true;
            return out;
        }
        const Vaddr line_va =
            pageBase(r.leading_vpn) | (line_pa & kPageMask & ~kLineMask);
        out.line_present = r.line_cached;

        // Line-level filtering: the bit-vector says the L2 does not
        // hold the line; if no L1 invalidation filter covers the page
        // either (non-inclusive L1s), the probe touches no cache.
        bool l1_may_hold = false;
        for (const auto &f : filters_)
            l1_may_hold = l1_may_hold ||
                          f->maybePresent(r.asid, r.leading_vpn);
        if (!r.line_cached && !l1_may_hold) {
            out.line_filtered = true;
            ++probe_lines_filtered_;
            return out;
        }

        if (invalidate) {
            if (auto info = l2_.invalidateLine(r.asid, line_va)) {
                fbt_.lineEvicted(r.asid, r.leading_vpn,
                                 lineInPage(line_va));
                out.was_dirty = info->dirty;
                out.invalidated = true;
            }
            for (unsigned cu = 0; cu < l1s_.size(); ++cu) {
                if (filters_[cu]->onInvalidate(r.asid, r.leading_vpn)) {
                    l1s_[cu]->invalidateAll();
                    filters_[cu]->reset();
                    ++l1_flushes_;
                }
            }
        }
        return out;
    }

    // ---------------------------------------------------------------
    // Accessors and statistics
    // ---------------------------------------------------------------

    Fbt &fbt() { return fbt_; }
    const Fbt &fbt() const { return fbt_; }
    Iommu *iommu() override { return &iommu_; }
    Directory &directory() { return dir_; }
    CacheArray &l1(unsigned cu) override { return *l1s_[cu]; }
    const CacheArray &l1(unsigned cu) const { return *l1s_[cu]; }
    CacheArray &l2() override { return l2_; }
    const CacheArray &l2() const { return l2_; }
    InvalidationFilter &filter(unsigned cu) { return *filters_[cu]; }
    SynonymRemapTable &remapTable() { return remap_; }
    const SynonymRemapTable &remapTable() const { return remap_; }

    std::uint64_t synonymReplays() const
    {
        return synonym_replays_.value;
    }
    std::uint64_t rwFaults() const { return rw_faults_.value; }
    std::uint64_t protectionFaults() const
    {
        return protection_faults_.value;
    }
    std::uint64_t l1Flushes() const { return l1_flushes_.value; }
    std::uint64_t probeLinesFiltered() const
    {
        return probe_lines_filtered_.value;
    }

    void
    flushLifetimes() override
    {
        for (auto &l1 : l1s_)
            l1->flushLifetimes();
        l2_.flushLifetimes();
    }

    /**
     * Kernel boundary (§4).  The FBT is inclusive of the virtual caches,
     * so the requested flags cascade: a TLB shootdown drops the FBT, and
     * dropping the FBT (or the L2, whose line bits the FBT holds) drops
     * every cache level plus the synonym remap table.  Unlike the
     * simulated purge path (purgePage), this is a harness-level reset:
     * no writeback traffic is modelled and no result counters move, so
     * a flush-all warm round stays bit-identical to a fresh cold run.
     */
    void
    applyBoundary(const BoundaryPolicy &p) override
    {
        const bool drop_fbt =
            p.flush_fbt || p.flush_l2 || p.shootdown_tlbs;
        if (p.flush_l1 || drop_fbt) {
            for (unsigned cu = 0; cu < l1s_.size(); ++cu) {
                l1s_[cu]->invalidateAll();
                filters_[cu]->reset();
            }
        }
        if (drop_fbt) {
            l2_.invalidateAll(); // dirty lines dropped silently
            fbt_.shootdownAll();
            remap_.clear();
        }
        if (p.shootdown_tlbs)
            iommu_.invalidateAll();
    }

    void
    stats(StatSink &s) const override
    {
        for (const auto &l1 : l1s_)
            s.scope("l1", *l1);
        s.scope("l2", l2_);
        s.scope("directory", dir_);
        s.scope("fbt", fbt_);
        s.scope("iommu", iommu_);
        s("synonym.replays", synonym_replays_);
        s.scope("synonym.remap", remap_);
        s("vc.rw_faults", rw_faults_);
        s("vc.fbt_purges", fbt_purges_);
        s("vc.l1_flushes", l1_flushes_);
        s("vc.translation_merges", xlate_merges_);
        s("vc.probe_lines_filtered", probe_lines_filtered_);
        s("vc.dropped_fills", dropped_fills_);
    }

  private:
    // --- L1 stage (virtual, write-through no-allocate) ---

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
            // Store hit still writes through to the L2.
        } else if (!way) {
            l1.recordMiss(false);
        } else {
            // Write to a read-only line: drop the stale copy; the miss
            // path below re-checks permissions at translation time.
            const CacheLineInfo info = l1.invalidate(*way);
            filters_[req->cu]->lineEvicted(info.asid,
                                           pageOf(info.line_addr));
        }
        sendToL2(req);
    }

    // --- L2 stage (virtual, banked, write-back write-allocate) ---

    void sendToL2(MemRequest *req) { to_l2_hop_.in(cfg_.cu_to_l2, req); }

    /** The request reached its L2 bank: wait for the bank's port. */
    void
    l2Arrive(MemRequest *req)
    {
        const Tick start =
            banks_[l2_bank_(req->line_va >> kLineShift)].acquire(ctx_.now());
        l2_hop_.at(start + cfg_.l2_latency, req);
    }

    void
    l2Access(MemRequest *req)
    {
        const Asid asid = req->asid;
        const Vaddr line_va = req->line_va;
        const auto way = l2_.lookup(asid, line_va);
        if (way &&
            (!req->is_store || permsAllow(way->perms, kPermWrite))) {
            l2_.recordHit(*way, req->is_store, ctx_.now());
            if (req->is_store)
                fbt_.markWritten(asid, pageOf(line_va));
            else
                l1Fill(req->cu, asid, line_va, way->perms);
            return_hop_.in(cfg_.cu_to_l2, req);
            return;
        }
        if (!way)
            l2_.recordMiss(false);

        // Virtual L2 miss: translation required (the only point where
        // the IOMMU is consulted in this design).
        if (mshrs_.allocate(mshrKey(req), req, req->is_store) ==
            MshrTable<MemRequest>::Result::kSecondary)
            return;

        // Coalesce concurrent translation requests for the same page:
        // one IOMMU access serves every outstanding line miss of the
        // page (standard MSHR-style merging; without it any DRAM-bound
        // streaming phase would falsely bottleneck on the shared TLB
        // port even though it only needs one translation per page).
        auto [it, fresh] = xlate_pending_.try_emplace(xlateKey(req));
        it->second.append(req);
        if (!fresh) {
            ++xlate_merges_;
            return;
        }
        ctx_.eq.scheduleIn(cfg_.l2_to_iommu, [this, req] {
            iommu_.translate(
                req->asid, pageOf(req->line_va),
                [this, req](const IommuResponse &resp) {
                    auto node = xlate_pending_.extract(xlateKey(req));
                    if (node.empty())
                        return;
                    node.mapped().forEach([this, &resp](MemRequest *r) {
                        r->resp = resp;
                        onTranslation(r);
                    });
                });
        });
    }

    // --- IOMMU response: permission check, then the BT synonym check ---

    /** @p req is the primary miss of its line; req->resp is its page. */
    void
    onTranslation(MemRequest *req)
    {
        if (req->resp.fault)
            fatal("VirtualCacheSystem: unhandled GPU page fault");
        const Perms need = req->is_store ? kPermWrite : kPermRead;
        if (!permsAllow(req->resp.perms, need)) {
            ++protection_faults_;
            completeKey(req);
            return;
        }
        ctx_.eq.scheduleIn(cfg_.fbt_latency,
                           [this, req] { synonymCheck(req); });
    }

    void
    synonymCheck(MemRequest *req)
    {
        const Asid asid = req->asid;
        const Vaddr line_va = req->line_va;
        const IommuResponse &resp = req->resp;
        // 2 MB pages either split into 4 KB subpage entries (§4.3
        // optimization, the default) or use one counter-mode entry.
        const bool counter_mode =
            resp.large && !cfg_.fbt.split_large_pages;
        SynonymCheck check;
        if (counter_mode) {
            const Vpn vpn = pageOf(line_va);
            const Vpn large_base = vpn & ~Vpn{0x1ff};
            const Ppn ppn_base = resp.ppn - (vpn & 0x1ff);
            check = fbt_.onCacheMissLarge(asid, large_base, ppn_base,
                                          resp.perms, req->is_store);
            // Counter mode has no per-line bits: always fetch.
            check.line_cached = false;
        } else {
            check = fbt_.onCacheMiss(asid, pageOf(line_va), resp.ppn,
                                     resp.perms, lineInPage(line_va),
                                     req->is_store);
        }
        for (const auto &victim : check.victims)
            purgePage(victim);

        switch (check.kind) {
          case SynonymCheck::Kind::kNewLeading:
          case SynonymCheck::Kind::kLeadingMatch:
            if (check.line_cached) {
                // In-flight fill already landed (same leading VA).
                completeKey(req);
            } else {
                fetchLine(req);
            }
            return;
          case SynonymCheck::Kind::kSynonym: {
            ++synonym_replays_;
            GVC_DPRINTF(kVc, ctx_.now(),
                        "replay with leading asid=%u vpn=%#llx",
                        unsigned(check.leading_asid),
                        (unsigned long long)check.leading_vpn);
            // Cache the remapping so future accesses through this
            // name are rewritten before the L1 (§4.3, if enabled).
            if (!counter_mode) {
                remap_.insert(asid, pageOf(line_va),
                              RemapTarget{check.leading_asid,
                                          check.leading_vpn});
            }
            // Rebase onto the leading name: at 2 MB granularity for
            // counter-mode entries, 4 KB otherwise.
            const Vaddr leading_line =
                counter_mode
                    ? (pageBase(check.leading_vpn) |
                       (line_va & (kLargePageSize - 1) & ~kLineMask))
                    : (pageBase(check.leading_vpn) |
                       (line_va & kPageMask & ~kLineMask));
            // Replay the access through the hierarchy with the leading
            // VA as a request of its own; the waiters of @p req's line
            // complete when it does.
            access(req->cu, check.leading_asid, leading_line,
                   req->is_store, [this, req] { completeKey(req); });
            return;
          }
          case SynonymCheck::Kind::kRwFault:
            ++rw_faults_;
            completeKey(req);
            return;
        }
    }

    // --- memory fetch and L2 fill under the leading VA ---

    void
    fetchLine(MemRequest *req)
    {
        // The IOMMU sits next to the directory (Figure 6), so the
        // translated request proceeds to the directory without another
        // network hop; the directory handles CPU-side conflicts and
        // the memory access.
        req->line_pa = pageBase(req->resp.ppn) |
                       (req->line_va & kPageMask & ~kLineMask);
        dir_.fetch(DirNode::kGpu, req->line_pa,
                   mshrs_.storePending(mshrKey(req)),
                   [this, req] { fillL2(req); });
    }

    void
    fillL2(MemRequest *req)
    {
        const Asid asid = req->asid;
        const Vaddr line_va = req->line_va;
        const Vpn vpn = pageOf(line_va);
        if (!fbt_.hasLeading(asid, vpn)) {
            // The page was purged (shootdown / FBT eviction) while the
            // fill was in flight: drop the fill, complete the waiters.
            ++dropped_fills_;
            completeKey(req);
            return;
        }
        const bool dirty = mshrs_.storePending(mshrKey(req));
        const auto victim =
            l2_.insert(asid, line_va, req->resp.perms, dirty, ctx_.now());
        fbt_.lineFilled(asid, vpn, lineInPage(line_va));
        if (dirty)
            fbt_.markWritten(asid, vpn);
        if (victim) {
            fbt_.lineEvicted(victim->asid, pageOf(victim->line_addr),
                             lineInPage(victim->line_addr));
            if (victim->dirty)
                writebackVictim(*victim);
        }
        completeKey(req);
    }

    /**
     * The line @p primary missed on is settled (filled, dropped or
     * refused): wake its MSHR waiters in merge order.
     */
    void
    completeKey(MemRequest *primary)
    {
        mshrs_.complete(mshrKey(primary), [this](MemRequest *w) {
            if (!w->is_store) {
                // Fill the L1 only if the data landed under this VA
                // (i.e., this VA is the leading VA; synonym replays
                // leave the non-leading access uncached, §4.1).
                if (auto p = l2_.linePerms(w->asid, w->line_va))
                    l1Fill(w->cu, w->asid, w->line_va, *p);
            }
            return_hop_.in(cfg_.cu_to_l2, w);
        });
    }

    // --- L1 fills with invalidation-filter bookkeeping ---

    void
    l1Fill(unsigned cu_id, Asid asid, Vaddr line_va, Perms perms)
    {
        const CacheFill fill = l1s_[cu_id]->insertIfAbsent(
            asid, line_va, perms, false, ctx_.now());
        if (!fill.inserted)
            return; // a racing fill landed first; filter already counted
        filters_[cu_id]->lineFilled(asid, pageOf(line_va));
        if (fill.victim) {
            filters_[cu_id]->lineEvicted(fill.victim->asid,
                                         pageOf(fill.victim->line_addr));
        }
    }

    // --- page purges (FBT displacement, shootdowns) ---

    void
    purgePage(const FbtEvictedPage &page)
    {
        ++fbt_purges_;
        GVC_DPRINTF(kVc, ctx_.now(),
                    "purge page asid=%u vpn=%#llx bits=%#x",
                    unsigned(page.asid),
                    (unsigned long long)page.leading_vpn,
                    page.line_bits);
        remap_.dropLeading(page.asid, page.leading_vpn);
        if (!page.large) {
            // Selective L2 invalidation driven by the bit vector.
            std::uint32_t bits = page.line_bits;
            while (bits) {
                const unsigned idx = unsigned(__builtin_ctz(bits));
                bits &= bits - 1;
                const Vaddr line = pageBase(page.leading_vpn) +
                                   std::uint64_t(idx) * kLineSize;
                if (auto info = l2_.invalidateLine(page.asid, line)) {
                    if (info->dirty)
                        writebackVictim(*info);
                }
            }
        } else if (page.line_count > 0) {
            // Counter mode: no per-line map, walk the page's lines.
            const std::uint64_t subpages = kLargePageSize / kPageSize;
            for (std::uint64_t sp = 0; sp < subpages; ++sp) {
                l2_.invalidatePage(
                    page.asid,
                    pageBase(page.leading_vpn + sp),
                    [this](const CacheLineInfo &info) {
                        if (info.dirty)
                            writebackVictim(info);
                    });
            }
        }
        // Broadcast to the L1 invalidation filters.
        for (unsigned cu = 0; cu < l1s_.size(); ++cu) {
            if (filters_[cu]->onInvalidate(page.asid, page.leading_vpn)) {
                l1s_[cu]->invalidateAll();
                filters_[cu]->reset();
                ++l1_flushes_;
            }
        }
    }

    /** Write a dirty victim back through the directory; falls back to
     *  a raw memory write when its page is already unmapped. */
    void
    writebackVictim(const CacheLineInfo &victim)
    {
        const auto t = vm_.translate(victim.asid, victim.line_addr);
        if (t) {
            const Paddr pa =
                pageBase(t->ppn) |
                (victim.line_addr & kPageMask & ~kLineMask);
            dir_.writeback(DirNode::kGpu, pa);
        } else {
            dram_.access(kLineSize, [] {});
        }
    }

    static std::uint64_t
    mshrKey(const MemRequest *req)
    {
        return (req->line_va >> kLineShift) |
               (std::uint64_t(req->asid) << 52);
    }

    static std::uint64_t
    xlateKey(const MemRequest *req)
    {
        return pageOf(req->line_va) | (std::uint64_t(req->asid) << 40);
    }

    SimContext &ctx_;
    SocConfig cfg_;
    Dram &dram_;
    Vm &vm_;
    Directory dir_;
    std::vector<std::unique_ptr<CacheArray>> l1s_;
    std::vector<std::unique_ptr<InvalidationFilter>> filters_;
    CacheArray l2_;
    std::vector<BankPort> banks_;
    SetIndex l2_bank_;
    RequestPool reqs_;
    MshrTable<MemRequest> mshrs_;
    /// Primary misses waiting on one translation, keyed by xlateKey().
    std::unordered_map<std::uint64_t, XlateChain> xlate_pending_;
    Fbt fbt_;
    Iommu iommu_;
    SynonymRemapTable remap_;
    CuInjectionPorts injection_;

    Counter xlate_merges_;
    Counter synonym_replays_;
    Counter rw_faults_;
    Counter protection_faults_;
    Counter fbt_purges_;
    Counter l1_flushes_;
    Counter dropped_fills_;
    Counter probe_lines_filtered_;
    using Self = VirtualCacheSystem;
    Hop<Self, &Self::l1Access> l1_hop_{ctx_.eq, *this};
    Hop<Self, &Self::l2Arrive> to_l2_hop_{ctx_.eq, *this};
    Hop<Self, &Self::l2Access> l2_hop_{ctx_.eq, *this};
    /// The trip back to the CU, where the request finishes.
    Hop<RequestPool, &RequestPool::finish> return_hop_{ctx_.eq, reqs_};
};

} // namespace gvc

#endif // GVC_CORE_VIRTUAL_HIERARCHY_HH
