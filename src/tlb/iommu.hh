/**
 * @file
 * IOMMU front end: the shared translation structure whose bandwidth the
 * paper identifies as the bottleneck.
 *
 * The shared TLB is modeled as a single rate-limited port (Table 1 /
 * footnote 2: up to one access per cycle; Figure 5 sweeps 1..4).
 * Requests that find the port busy queue up; the resulting waiting time
 * is the paper's "serialization overhead".  Misses consult an optional
 * second-level structure (the FBT, when the virtual-cache design installs
 * it) and then the multi-threaded page-table walker.
 */

#ifndef GVC_TLB_IOMMU_HH
#define GVC_TLB_IOMMU_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/dram.hh"
#include "sim/callback.hh"
#include "mem/vm.hh"
#include "sim/debug.hh"
#include "sim/set_index.hh"
#include "sim/sim_context.hh"
#include "sim/slab_pool.hh"
#include "tlb/ptw.hh"
#include "tlb/tlb.hh"

namespace gvc
{

/** IOMMU configuration. */
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

/** Response delivered to the requester. */
struct IommuResponse
{
    bool fault = false;
    Ppn ppn = kInvalidPpn;
    Perms perms = kPermNone;
    bool large = false;
    /** Reach of the filling entry (see TlbLookup); 0 = one page. */
    std::uint8_t reach = 0;
    Vpn base_vpn = kInvalidVpn;
    Ppn base_ppn = kInvalidPpn;
};

/**
 * The IOMMU.  translate() is asynchronous; the response callback runs at
 * the time the translation (or fault) completes, excluding interconnect
 * latency, which callers model.
 */
class Iommu
{
  public:
    using DoneFn = SmallFunc<void(const IommuResponse &)>;
    /** Functional second-level lookup (the FBT's forward table). */
    using SecondLevelFn =
        std::function<std::optional<TlbLookup>(Asid, Vpn)>;
    /** Returns true when the fault was repaired and the walk may retry. */
    using FaultFixFn = std::function<bool(Asid, Vpn)>;

    Iommu(SimContext &ctx, Vm &vm, Dram &dram, const IommuParams &params)
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
          bank_of_(params.banks)
    {
        vm.addPageShootdownListener(
            [this](Asid asid, Vpn vpn) { invalidatePage(asid, vpn); });
        vm.addFullShootdownListener(
            [this](Asid asid) { tlb_.invalidateAsid(asid, ctx_.now()); });
    }

    /** Request a translation of (asid, vpn). */
    void
    translate(Asid asid, Vpn vpn, DoneFn on_done)
    {
        ++accesses_;
        sampler_.record(ctx_.now());

        // Arbitrate for the shared TLB port (per bank when banked).
        Tick start = ctx_.now();
        if (!params_.unlimited_bw) {
            std::uint64_t &free_fp =
                port_free_fp_[bank_of_(vpn >> params_.bank_select_shift)];
            const std::uint64_t now_fp = ctx_.now() * kFpScale;
            const std::uint64_t start_fp =
                free_fp > now_fp ? free_fp : now_fp;
            if (free_fp > now_fp)
                ++bank_conflicts_;
            free_fp = start_fp + port_fp_per_access_;
            start = start_fp / kFpScale;
            serialization_delay_ += start - ctx_.now();
        }
        Request *req = reqs_.acquire();
        req->asid = asid;
        req->vpn = vpn;
        req->done = std::move(on_done);
        ctx_.eq.schedule(start + params_.tlb_latency,
                         [this, req] { afterTlbLookup(req); });
    }

    /** Install the FBT (or other) second-level translation source. */
    void
    setSecondLevel(SecondLevelFn fn)
    {
        second_level_ = std::move(fn);
    }

    /** Install a page-fault fixer (CPU-side demand handler). */
    void
    setFaultFixer(FaultFixFn fn)
    {
        fault_fixer_ = std::move(fn);
    }

    void
    invalidatePage(Asid asid, Vpn vpn)
    {
        tlb_.invalidatePage(asid, vpn, ctx_.now());
    }

    void invalidateAll() { tlb_.invalidateAll(ctx_.now()); }

    Tlb &tlb() { return tlb_; }
    PageTableWalker &ptw() { return ptw_; }
    IntervalSampler &sampler() { return sampler_; }
    const IntervalSampler &sampler() const { return sampler_; }

    std::uint64_t accesses() const { return accesses_.value; }
    std::uint64_t secondLevelHits() const { return sl_hits_.value; }
    std::uint64_t secondLevelLookups() const { return sl_lookups_.value; }
    std::uint64_t walks() const { return walks_.value; }
    std::uint64_t faults() const { return faults_.value; }
    /** Walk completions filled as one multi-page coalesced entry. */
    std::uint64_t coalescedFills() const { return coalesced_fills_.value; }

    /** Translations requested and not yet answered. */
    std::size_t requestsInFlight() const { return reqs_.inUse(); }

    /** Total cycles requests spent waiting for the shared TLB port. */
    std::uint64_t
    serializationDelay() const
    {
        return serialization_delay_.value;
    }

    double
    meanSerializationDelay() const
    {
        return accesses_.value
            ? double(serialization_delay_.value) / double(accesses_.value)
            : 0.0;
    }

    /** Accesses that found their bank busy (banked configurations). */
    std::uint64_t bankConflicts() const { return bank_conflicts_.value; }

  private:
    static constexpr std::uint64_t kFpScale = 1024;

    /** One translation in flight; hops capture [this, req]. */
    struct Request
    {
        Asid asid = 0;
        Vpn vpn = 0;
        DoneFn done;
    };

    /** Deliver @p resp to the requester and recycle @p req. */
    void
    respond(Request *req, const IommuResponse &resp)
    {
        req->done(resp);
        req->done = nullptr;
        reqs_.release(req);
    }

    void
    afterTlbLookup(Request *req)
    {
        if (auto hit = tlb_.lookup(req->asid, req->vpn, ctx_.now())) {
            respond(req, IommuResponse{false, hit->ppn, hit->perms,
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
                if (auto hit = second_level_(req->asid, req->vpn)) {
                    ++sl_hits_;
                    tlb_.insert(req->asid, req->vpn, *hit, ctx_.now());
                    respond(req, IommuResponse{false, hit->ppn,
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
    startWalk(Request *req)
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
    walkDone(Request *req, std::optional<Translation> t, bool retried)
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
            respond(req, IommuResponse{true, kInvalidPpn, kPermNone, false});
            return;
        }
        const TlbLookup fill = fillFor(asid, vpn, *t);
        tlb_.insert(asid, vpn, fill, ctx_.now());
        respond(req, IommuResponse{false, t->ppn, t->perms, t->large,
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

    SecondLevelFn second_level_;
    FaultFixFn fault_fixer_;
    SlabPool<Request> reqs_;

    Counter accesses_;
    Counter sl_lookups_;
    Counter sl_hits_;
    Counter walks_;
    Counter faults_;
    Counter serialization_delay_;
    Counter bank_conflicts_;
    Counter coalesced_fills_;
};

} // namespace gvc

#endif // GVC_TLB_IOMMU_HH
