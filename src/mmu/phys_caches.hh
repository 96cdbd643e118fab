/**
 * @file
 * Physically-tagged GPU cache pipeline shared by the IDEAL and baseline
 * MMU designs (and the physical L2 of the L1-only virtual-cache design):
 * per-CU write-through-no-allocate L1s in front of a banked, write-back,
 * write-allocate shared L2, backed by a directory hop and DRAM.
 */

#ifndef GVC_MMU_PHYS_CACHES_HH
#define GVC_MMU_PHYS_CACHES_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/bank_port.hh"
#include "cache/cache_array.hh"
#include "cache/directory.hh"
#include "cache/mshr.hh"
#include "mem/dram.hh"
#include "mmu/mem_request.hh"
#include "mmu/soc_config.hh"
#include "sim/set_index.hh"
#include "sim/sim_context.hh"

namespace gvc
{

/**
 * The physical cache hierarchy.  Callers hand in a MemRequest whose
 * line_pa is the already-translated line-aligned physical address; the
 * request finishes when load data returns to the CU (including the
 * return NoC hop) or when a store has been accepted by the L2.
 */
class PhysCaches
{
  public:
    /**
     * Runs in place of RequestPool::finish when a request's data is back
     * at the CU; an owner with its own L1s (the L1-only VC) fills them
     * here, then finishes the request.
     */
    using ReturnHook = SmallFunc<void(MemRequest *)>;

    PhysCaches(SimContext &ctx, const SocConfig &cfg, Dram &dram,
               RequestPool &reqs, ReturnHook on_return = nullptr)
        : ctx_(ctx), cfg_(cfg), dram_(dram), reqs_(reqs),
          on_return_(std::move(on_return)),
          dir_(ctx, dram, Directory::Params{cfg.dir_latency}),
          l2_(CacheParams{cfg.l2_size, cfg.l2_assoc, unsigned(kLineSize),
                          /*write_back=*/true, /*write_allocate=*/true,
                          cfg.track_lifetimes})
    {
        // External probes invalidate by physical address directly.
        dir_.setProbeSink(DirNode::kGpu, [this](Paddr line, bool inv) {
            ProbeOutcome out;
            if (inv) {
                if (auto info = l2_.invalidateLine(0, line)) {
                    out.had_line = true;
                    out.was_dirty = info->dirty;
                }
                for (auto &l1 : l1s_)
                    if (l1->invalidateLine(0, line))
                        out.had_line = true;
            } else {
                out.had_line = l2_.present(0, line);
            }
            return out;
        });
        l1s_.reserve(cfg.gpu.num_cus);
        for (unsigned i = 0; i < cfg.gpu.num_cus; ++i) {
            l1s_.push_back(std::make_unique<CacheArray>(
                CacheParams{cfg.l1_size, cfg.l1_assoc, unsigned(kLineSize),
                            /*write_back=*/false, /*write_allocate=*/false,
                            cfg.track_lifetimes}));
        }
        banks_.reserve(cfg.l2_banks);
        for (unsigned i = 0; i < cfg.l2_banks; ++i)
            banks_.emplace_back(1.0);
        l2_bank_ = SetIndex(cfg.l2_banks);
    }

    /**
     * Access starting at the L1 of @p req->cu.  Stores write through:
     * the L1 line is updated on hit but never allocated, and the store
     * always proceeds to the L2.
     */
    void
    accessL1(MemRequest *req)
    {
        ctx_.eq.scheduleIn(cfg_.l1_latency, [this, req] {
            const bool hit = l1s_[req->cu]->access(0, req->line_pa,
                                                   req->is_store,
                                                   ctx_.now());
            if (hit && !req->is_store)
                reqs_.finish(req);
            else
                accessL2(req);
        });
    }

    /**
     * Access the shared L2 directly (the L1-only-VC design lands here
     * after translation).  Includes the CU<->L2 NoC hops and the bank
     * port arbitration.  A load fills the CU's L1 on return when
     * @p req->fill_l1 is set.
     */
    void
    accessL2(MemRequest *req)
    {
        ctx_.eq.scheduleIn(cfg_.cu_to_l2, [this, req] {
            const Tick start =
                banks_[bankOf(req->line_pa)].acquire(ctx_.now());
            ctx_.eq.schedule(start + cfg_.l2_latency,
                             [this, req] { l2Access(req); });
        });
    }

    CacheArray &l1(unsigned cu) { return *l1s_[cu]; }
    const CacheArray &l1(unsigned cu) const { return *l1s_[cu]; }
    CacheArray &l2() { return l2_; }
    const CacheArray &l2() const { return l2_; }
    MshrTable<MemRequest> &mshrs() { return mshrs_; }
    Directory &directory() { return dir_; }

    /**
     * Kernel-boundary invalidation: drop the selected levels without
     * modelling writeback traffic or bumping result counters — the
     * boundary is a harness-level reset, not a simulated event, so a
     * flushed warm run must stay bit-identical to a fresh cold run.
     * (The L2 is write-back; its dirty lines are dropped silently.)
     */
    void
    boundaryFlush(bool flush_l1, bool flush_l2)
    {
        if (flush_l1) {
            for (auto &l1 : l1s_)
                l1->invalidateAll();
        }
        if (flush_l2)
            l2_.invalidateAll();
    }

    /** Record lifetimes of lines still resident (end of simulation). */
    void
    flushLifetimes()
    {
        for (auto &l1 : l1s_)
            l1->flushLifetimes();
        l2_.flushLifetimes();
    }

  private:
    unsigned
    bankOf(Paddr line) const
    {
        return unsigned(l2_bank_(line >> kLineShift));
    }

    void
    l2Access(MemRequest *req)
    {
        if (l2_.access(0, req->line_pa, req->is_store, ctx_.now())) {
            returnToCu(req);
            return;
        }

        // Miss: queue behind any outstanding fill of the same line.
        const Paddr line = req->line_pa;
        const std::uint64_t key = line >> kLineShift;
        if (mshrs_.allocate(key, req, req->is_store) ==
            MshrTable<MemRequest>::Result::kSecondary)
            return;

        // Primary: fetch through the directory (exclusive for stores).
        const bool exclusive = req->is_store;
        ctx_.eq.scheduleIn(cfg_.l2_to_dir, [this, line, exclusive] {
            dir_.fetch(DirNode::kGpu, line, exclusive,
                       [this, line] { fillComplete(line); });
        });
    }

    /** Fill the L1 for a returning load, then finish after the NoC hop. */
    void
    returnToCu(MemRequest *req)
    {
        if (!req->is_store && req->fill_l1)
            fillL1(req->cu, req->line_pa);
        ctx_.eq.scheduleIn(cfg_.cu_to_l2, [this, req] {
            if (on_return_)
                on_return_(req);
            else
                reqs_.finish(req);
        });
    }

    void
    fillComplete(Paddr line)
    {
        const std::uint64_t key = line >> kLineShift;
        const auto victim =
            l2_.insert(0, line, kPermRead | kPermWrite,
                       mshrs_.storePending(key), ctx_.now());
        if (victim && victim->dirty)
            dir_.writeback(DirNode::kGpu, victim->line_addr);
        mshrs_.complete(key, [this](MemRequest *w) { returnToCu(w); });
    }

    void
    fillL1(unsigned cu, Paddr line)
    {
        l1s_[cu]->insert(0, line, kPermRead | kPermWrite, false,
                         ctx_.now());
    }

    SimContext &ctx_;
    const SocConfig cfg_; ///< A copy: callers may pass a temporary.
    Dram &dram_;
    RequestPool &reqs_;
    ReturnHook on_return_;
    Directory dir_;
    std::vector<std::unique_ptr<CacheArray>> l1s_;
    CacheArray l2_;
    std::vector<BankPort> banks_;
    SetIndex l2_bank_;
    MshrTable<MemRequest> mshrs_;
};

} // namespace gvc

#endif // GVC_MMU_PHYS_CACHES_HH
