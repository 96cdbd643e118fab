/**
 * @file
 * IOMMU front end: the shared translation structure whose bandwidth the
 * paper identifies as the bottleneck.
 *
 * The shared TLB is modeled as a single rate-limited port (Table 1 /
 * footnote 2: up to one access per cycle; Figure 5 sweeps 1..4).
 * Requests that find the port busy queue up; the resulting waiting time
 * is the paper's "serialization overhead".  Misses consult the FBT's
 * forward table when the virtual-cache design installs it as the second
 * level (§4.3, "With OPT"), then the multi-threaded page-table walker.
 *
 * The IOMMU works on its requester's MemRequest like every other hop: a
 * request arrives through translateIn(), the translation of (req->asid,
 * req->vpn) is written to req->resp, and the owner's answer, given once
 * at construction, runs on the request when it completes.  The only
 * record besides the request is the walker's per-walk state.
 */

#ifndef GVC_MMU_IOMMU_HH
#define GVC_MMU_IOMMU_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/fbt.hh"
#include "mem/dram.hh"
#include "mem/vm.hh"
#include "mmu/mem_request.hh"
#include "sim/callback.hh"
#include "sim/debug.hh"
#include "sim/set_index.hh"
#include "sim/sim_context.hh"
#include "sim/stats.hh"
#include "tlb/ptw.hh"
#include "tlb/tlb.hh"

namespace gvc
{

/** IOMMU configuration: SocConfig::iommu, read through iommuParams(). */
struct IommuParams
{
    unsigned tlb_entries = 512;
    unsigned tlb_assoc = 8;
    bool tlb_infinite = false;
    /** Last-translation memo in the shared TLB (host-side only). */
    bool tlb_memo = true;

    /** Peak shared-TLB bandwidth per bank; ignored when unlimited_bw. */
    double accesses_per_cycle = 1.0;
    /** Remove the port limit entirely (IDEAL MMU, Figure 3 probe runs). */
    bool unlimited_bw = false;
    /**
     * Multi-banked shared TLB (§3.2 discussion): each bank has its own
     * port.  Banks are selected by higher-order VPN bits, which is why
     * the paper observes frequent conflicts for clustered footprints.
     */
    unsigned banks = 1;
    /** VPN bits skipped before the bank-select modulo. */
    unsigned bank_select_shift = 4;

    /** Shared TLB lookup latency once the port is won. */
    Tick tlb_latency = 4;
    /** Lookup latency of the second-level structure (FBT: 5 cycles). */
    Tick second_level_latency = 5;
    /** CPU page-fault service latency (minor fault fix-up). */
    Tick fault_latency = 20000;

    PtwParams ptw;

    /** Sampling window for access-rate stats: 1 µs at 700 MHz. */
    Tick sample_window = 700;

    /** Max shared-TLB entry reach (log2 pages); 0 = classic 4 KB. */
    unsigned tlb_max_reach = 0;
    /** Buddy-merge contiguous shared-TLB entries at insertion time. */
    bool tlb_merge_on_insert = false;
    /**
     * At walk completion, probe the page table for an aligned block of
     * up to 2^coalesce_max_reach contiguously-mapped same-perm pages
     * around the walked VPN and fill one multi-page entry covering it.
     * The default ceiling of 3 matches one 64 B PTE line (8 PTEs): the
     * walker already fetched every PTE needed for the probe, so the
     * coalesced fill costs no extra memory traffic.  0 disables.
     */
    unsigned coalesce_max_reach = 0;
    /** Shared-TLB fill policy (kTlbFill*; see tlb/tlb.hh). */
    unsigned tlb_fill_policy = kTlbFillLru;
    /** Shared-TLB replacement policy (kTlbRepl*). */
    unsigned tlb_replacement = kTlbReplLru;
};

/**
 * The IOMMU.  A request reaches it through translateIn(); the answer
 * runs at the time the translation (or fault) completes, excluding the
 * return trip, which the owner models.
 */
class Iommu
{
  public:
    /** The owner's answer: req->resp holds the translation or fault. */
    using AnswerFn = SmallFunc<void(MemRequest *)>;
    /** Returns true when the fault was repaired and the walk may retry. */
    using FaultFixFn = std::function<bool(Asid, Vpn)>;

    Iommu(SimContext &ctx, Vm &vm, Dram &dram, const IommuParams &params,
          AnswerFn answer)
        : ctx_(ctx), vm_(vm), params_(params),
          tlb_(TlbParams{params.tlb_entries, params.tlb_assoc,
                         params.tlb_infinite, false, params.tlb_memo,
                         params.tlb_max_reach,
                         params.tlb_merge_on_insert,
                         params.tlb_fill_policy,
                         params.tlb_replacement}),
          ptw_(ctx, vm, dram, params.ptw),
          sampler_(params.sample_window),
          port_fp_per_access_(params.unlimited_bw
                                  ? 0
                                  : std::uint64_t(double(kFpScale) /
                                                  params.accesses_per_cycle)),
          port_free_fp_(params.banks ? params.banks : 1, 0),
          bank_of_(params.banks), answer_(std::move(answer))
    {
        vm.addPageShootdownListener([this](Asid asid, Vpn vpn) {
            tlb_.invalidatePage(asid, vpn, ctx_.now());
        });
        vm.addFullShootdownListener(
            [this](Asid asid) { tlb_.invalidateAsid(asid, ctx_.now()); });
    }

    /** @p req reaches the IOMMU @p delay ticks from now. */
    void
    translateIn(Tick delay, MemRequest *req)
    {
        arrive_hop_.in(delay, req);
    }

    /** Install the FBT's forward table as the second-level TLB. */
    void setSecondLevel(Fbt *fbt) { second_level_ = fbt; }

    /** Install a page-fault fixer (CPU-side demand handler). */
    void
    setFaultFixer(FaultFixFn fn)
    {
        fault_fixer_ = std::move(fn);
    }

    /** Full shootdown: drop the shared TLB and the page-walk cache. */
    void
    invalidateAll()
    {
        tlb_.invalidateAll(ctx_.now());
        ptw_.pwc().invalidateAll();
    }

    Tlb &tlb() { return tlb_; }
    PageTableWalker &ptw() { return ptw_; }
    IntervalSampler &sampler() { return sampler_; }
    const IntervalSampler &sampler() const { return sampler_; }

    std::uint64_t accesses() const { return accesses_.value; }
    std::uint64_t walks() const { return walks_.value; }
    std::uint64_t faults() const { return faults_.value; }

    /** Accesses that found their bank busy (banked configurations). */
    std::uint64_t bankConflicts() const { return bank_conflicts_.value; }

    void
    stats(StatSink &s) const
    {
        s("accesses", accesses_);
        s("walks", walks_);
        s("faults", faults_);
        s("serialization_cycles", serialization_delay_);
        s("second_level_lookups", sl_lookups_);
        s("second_level_hits", sl_hits_);
        s("coalesced_fills", coalesced_fills_);
        s.scope("tlb", tlb_);
        s.scope("ptw", ptw_);
        s.scope("pwc", ptw_.pwc());
    }

  private:
    static constexpr std::uint64_t kFpScale = 1024;

    /** @p req reached the IOMMU: arbitrate for the shared TLB port. */
    void
    arrive(MemRequest *req)
    {
        ++accesses_;
        sampler_.record(ctx_.now());

        // Arbitrate for the shared TLB port (per bank when banked).
        Tick start = ctx_.now();
        if (!params_.unlimited_bw) {
            std::uint64_t &free_fp = port_free_fp_[bank_of_(
                req->vpn >> params_.bank_select_shift)];
            const std::uint64_t now_fp = ctx_.now() * kFpScale;
            const std::uint64_t start_fp =
                free_fp > now_fp ? free_fp : now_fp;
            if (free_fp > now_fp)
                ++bank_conflicts_;
            free_fp = start_fp + port_fp_per_access_;
            start = start_fp / kFpScale;
            serialization_delay_ += start - ctx_.now();
        }
        ctx_.eq.schedule(start + params_.tlb_latency,
                         [this, req] { afterTlbLookup(req); });
    }

    /** Answer @p req with @p resp. */
    void
    answer(MemRequest *req, const IommuResponse &resp)
    {
        req->resp = resp;
        answer_(req);
    }

    void
    afterTlbLookup(MemRequest *req)
    {
        if (auto hit = tlb_.lookup(req->asid, req->vpn, ctx_.now())) {
            answer(req, IommuResponse{false, hit->ppn, hit->perms,
                                      hit->large, hit->reach,
                                      hit->base_vpn, hit->base_ppn});
            return;
        }
        GVC_DPRINTF(kIommu, ctx_.now(),
                    "shared TLB miss asid=%u vpn=%#llx",
                    unsigned(req->asid), (unsigned long long)req->vpn);
        if (second_level_) {
            ++sl_lookups_;
            ctx_.eq.scheduleIn(params_.second_level_latency, [this, req] {
                auto hit = second_level_->forwardLookup(req->asid, req->vpn);
                if (hit) {
                    ++sl_hits_;
                    tlb_.insert(req->asid, req->vpn, *hit, ctx_.now());
                    answer(req, IommuResponse{false, hit->ppn,
                                              hit->perms, hit->large});
                } else {
                    startWalk(req);
                }
            });
            return;
        }
        startWalk(req);
    }

    void
    startWalk(MemRequest *req)
    {
        ++walks_;
        GVC_DPRINTF(kIommu, ctx_.now(), "walk asid=%u vpn=%#llx",
                    unsigned(req->asid), (unsigned long long)req->vpn);
        ptw_.walk(req->asid, req->vpn,
                  [this, req](std::optional<Translation> t) {
                      walkDone(req, t, false);
                  });
    }

    void
    walkDone(MemRequest *req, std::optional<Translation> t, bool retried)
    {
        const Asid asid = req->asid;
        const Vpn vpn = req->vpn;
        if (!t) {
            ++faults_;
            if (fault_fixer_ && !retried && fault_fixer_(asid, vpn)) {
                // The CPU repaired the mapping; retry the walk after the
                // fault-service latency.
                ctx_.eq.scheduleIn(params_.fault_latency, [this, req] {
                    ptw_.walk(req->asid, req->vpn,
                              [this, req](std::optional<Translation> t2) {
                                  walkDone(req, t2, true);
                              });
                });
                return;
            }
            answer(req, IommuResponse{true, kInvalidPpn, kPermNone, false});
            return;
        }
        const TlbLookup fill = fillFor(asid, vpn, *t);
        tlb_.insert(asid, vpn, fill, ctx_.now());
        answer(req, IommuResponse{false, t->ppn, t->perms, t->large,
                                  fill.reach, fill.base_vpn,
                                  fill.base_ppn});
    }

    /**
     * Shape the shared-TLB fill for a completed walk: a 2 MB leaf
     * becomes one reach-9 entry when the TLB admits it, and small-page
     * leaves are widened by probing the page table for an aligned
     * contiguously-mapped block (subregion-contiguity coalescing).
     * With both reach knobs at 0 this reduces to the classic one-page
     * fill.
     */
    TlbLookup
    fillFor(Asid asid, Vpn vpn, const Translation &t)
    {
        if (t.large) {
            if (params_.tlb_max_reach >= kMaxReachLog2) {
                const Ppn base_ppn = t.ppn - (vpn - t.base_vpn);
                return TlbLookup{t.ppn, t.perms, true,
                                 std::uint8_t(kMaxReachLog2),
                                 t.base_vpn, base_ppn};
            }
            return TlbLookup{t.ppn, t.perms, true};
        }
        const unsigned max = params_.coalesce_max_reach <
                                     params_.tlb_max_reach
                                 ? params_.coalesce_max_reach
                                 : params_.tlb_max_reach;
        if (max == 0)
            return TlbLookup{t.ppn, t.perms, false};
        const PageTable &pt = vm_.pageTable(asid);
        unsigned reach = 0;
        Vpn base = vpn;
        Ppn base_ppn = t.ppn;
        for (unsigned cand = 1; cand <= max; ++cand) {
            const Vpn cbase = reachBase(vpn, cand);
            Ppn cppn = kInvalidPpn;
            bool ok = true;
            for (std::uint64_t i = 0; i < reachPages(cand); ++i) {
                const auto pte = pt.translate(cbase + i);
                if (!pte || pte->large || pte->perms != t.perms) {
                    ok = false;
                    break;
                }
                if (i == 0)
                    cppn = pte->ppn;
                else if (pte->ppn != cppn + i) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                break;
            reach = cand;
            base = cbase;
            base_ppn = cppn;
        }
        if (reach == 0)
            return TlbLookup{t.ppn, t.perms, false};
        ++coalesced_fills_;
        return TlbLookup{t.ppn, t.perms, false, std::uint8_t(reach),
                         base, base_ppn};
    }

    SimContext &ctx_;
    Vm &vm_;
    IommuParams params_;
    Tlb tlb_;
    PageTableWalker ptw_;
    IntervalSampler sampler_;

    std::uint64_t port_fp_per_access_;
    std::vector<std::uint64_t> port_free_fp_;
    SetIndex bank_of_;

    Fbt *second_level_ = nullptr;
    FaultFixFn fault_fixer_;
    AnswerFn answer_;

    Counter accesses_;
    Counter sl_lookups_;
    Counter sl_hits_;
    Counter walks_;
    Counter faults_;
    /// Cycles requests spent waiting for the shared TLB port.
    Counter serialization_delay_;
    Counter bank_conflicts_;
    /// Walk completions filled as one multi-page coalesced entry.
    Counter coalesced_fills_;
    Hop<Iommu, &Iommu::arrive> arrive_hop_{ctx_.eq, *this};
};

} // namespace gvc

#endif // GVC_MMU_IOMMU_HH
