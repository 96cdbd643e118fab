/**
 * @file
 * Compute unit timing model.
 *
 * A CU holds up to max_resident_warps warp contexts and issues one warp
 * instruction per cycle, switching among ready warps (the GPU's latency
 * hiding).  Loads block the issuing warp until all of its coalesced line
 * requests complete; stores are write-through fire-and-forget, bounded by
 * a store-queue cap; scratchpad traffic occupies only the warp.  The CU
 * is event-driven: it sleeps whenever no warp is ready and is woken by
 * memory completions and compute timers.
 */

#ifndef GVC_GPU_CU_HH
#define GVC_GPU_CU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/coalescer.hh"
#include "sim/callback.hh"
#include "gpu/warp_inst.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace gvc
{

/** Warp scheduling policies. */
enum class WarpSchedPolicy : std::uint8_t {
    kRoundRobin,       ///< Fair rotation among ready warps.
    kGreedyThenOldest, ///< Stay on the current warp until it stalls.
};

/**
 * Round-robin warp pick over a ready mask: the first slot at or after
 * @p start, wrapping, whose bit is set in @p ready and that @p due
 * accepts.  This visits slots in the order of a linear scan over
 * (start + i) % n, skipping every slot that is not ready.
 * @return the slot index, or ~0u when no slot qualifies.
 */
template <class Due>
unsigned
pickRoundRobin(std::uint64_t ready, unsigned start, Due &&due)
{
    const std::uint64_t from_start = ready & (~std::uint64_t{0} << start);
    for (std::uint64_t part : {from_start, ready & ~from_start}) {
        for (; part; part &= part - 1) {
            const unsigned idx = unsigned(__builtin_ctzll(part));
            if (due(idx))
                return idx;
        }
    }
    return ~0u;
}

/** GPU-wide configuration (Table 1 defaults). */
struct GpuParams
{
    unsigned num_cus = 16;
    unsigned max_resident_warps = 24;
    Tick scratchpad_latency = 24;
    /** CU-wide cap on in-flight stores before issue stalls. */
    unsigned max_outstanding_stores = 64;
    WarpSchedPolicy sched = WarpSchedPolicy::kRoundRobin;
};

/**
 * The CU's window into the memory system.  Implementations are the MMU
 * designs under test (baseline physical hierarchy, virtual hierarchy,
 * ideal MMU, ...).
 */
class GpuMemInterface
{
  public:
    virtual ~GpuMemInterface() = default;

    /**
     * Issue one line-granularity request.
     * @param cu_id   Requesting CU (selects per-CU TLB / L1).
     * @param asid    Address space of the access.
     * @param line_va Line-aligned virtual address.
     * @param is_store Write-through store when true.
     * @param done    Invoked when the load data arrives / the store has
     *                been accepted by the hierarchy.
     */
    virtual void access(unsigned cu_id, Asid asid, Vaddr line_va,
                        bool is_store, Callback done) = 0;
};

/** One compute unit. */
class ComputeUnit
{
  public:
    /** Warp slots one CU can hold: one bit each in the ready mask. */
    static constexpr unsigned kMaxResidentWarps = 64;

    ComputeUnit(SimContext &ctx, unsigned id, const GpuParams &params,
                GpuMemInterface &mem)
        : ctx_(ctx), id_(id), params_(params), mem_(mem),
          slots_(params.max_resident_warps)
    {
        if (params.max_resident_warps > kMaxResidentWarps)
            fatal("ComputeUnit: max_resident_warps " +
                  std::to_string(params.max_resident_warps) +
                  " exceeds the supported " +
                  std::to_string(kMaxResidentWarps));
    }

    /** Queue a warp for execution in address space @p asid. */
    void
    enqueueWarp(Asid asid, std::unique_ptr<WarpStream> stream)
    {
        pending_.push_back(PendingWarp{asid, std::move(stream)});
    }

    /** Begin executing queued warps; @p on_done fires when all retire. */
    void
    start(std::function<void()> on_done)
    {
        on_done_ = std::move(on_done);
        done_reported_ = false;
        fillSlots();
        wake();
    }


    void
    stats(StatSink &s) const
    {
        s("instructions", issued_);
        s("mem_instructions", mem_insts_);
        s("scratch_instructions", scratch_insts_);
        s("coalesced_lines", coalescer_.linesEmitted());
    }

    bool
    idle() const
    {
        if (!pending_.empty() || total_outstanding_stores_ != 0)
            return false;
        for (const auto &s : slots_)
            if (s.st != Slot::St::kEmpty)
                return false;
        return true;
    }

    /**
     * Rebase the issue machinery on the current time (scenario kernel
     * boundary).  Setting last_issue_ = now() makes the first wake() of
     * the next kernel fire at now()+1, exactly one tick after "time
     * zero" — the same offset a fresh CU sees — and resetting the
     * scheduler cursors makes warp selection shift-invariant, so a
     * flushed warm kernel replays a cold run tick for tick.  Counters
     * are untouched.  Must only be called while the CU is idle.
     */
    void
    resetIssueState()
    {
        rr_next_ = 0;
        greedy_current_ = 0;
        assign_counter_ = 0;
        last_issue_ = ctx_.now();
    }

  private:
    struct PendingWarp
    {
        Asid asid;
        std::unique_ptr<WarpStream> stream;
    };

    struct Slot
    {
        enum class St : std::uint8_t {
            kEmpty,
            kReady,
            kWaitMem,
            kAtBarrier,
            kDraining, ///< Stream exhausted; waiting for outstanding ops.
        };

        std::unique_ptr<WarpStream> stream;
        Asid asid = 0;
        St st = St::kEmpty;
        Tick ready_at = 0;
        unsigned outstanding_loads = 0;
        unsigned outstanding_stores = 0;
        std::uint64_t assign_seq = 0; ///< Age for oldest-first policies.
    };

    /** Move pending warps into free slots (not during a barrier). */
    void
    fillSlots()
    {
        if (barrier_waiters_ > 0)
            return;
        for (auto &s : slots_) {
            if (pending_.empty())
                break;
            if (s.st != Slot::St::kEmpty)
                continue;
            s.stream = std::move(pending_.front().stream);
            s.asid = pending_.front().asid;
            pending_.pop_front();
            setState(s, Slot::St::kReady);
            s.ready_at = ctx_.now();
            s.outstanding_loads = 0;
            s.outstanding_stores = 0;
            s.assign_seq = ++assign_counter_;
        }
    }

    /** Request an issue attempt as soon as permissible. */
    void
    wake()
    {
        if (issue_pending_)
            return;
        issue_pending_ = true;
        const Tick at = ctx_.now() > last_issue_ ? ctx_.now()
                                                 : last_issue_ + 1;
        ctx_.eq.schedule(at, [this] {
            issue_pending_ = false;
            tryIssue();
        });
    }

    /** Pick the next warp to issue per the configured policy. */
    Slot *
    selectWarp(Tick now)
    {
        const unsigned n = unsigned(slots_.size());
        if (params_.sched == WarpSchedPolicy::kGreedyThenOldest) {
            // Greedy: stick with the last warp while it is ready.
            Slot &last = slots_[greedy_current_ % n];
            if (last.st == Slot::St::kReady && last.ready_at <= now)
                return &last;
            // Then oldest: the ready warp assigned earliest.
            Slot *oldest = nullptr;
            for (auto &s : slots_) {
                if (s.st == Slot::St::kReady && s.ready_at <= now &&
                    (!oldest || s.assign_seq < oldest->assign_seq)) {
                    oldest = &s;
                }
            }
            if (oldest) {
                greedy_current_ =
                    unsigned(oldest - slots_.data());
            }
            return oldest;
        }
        const unsigned idx =
            pickRoundRobin(ready_mask_, rr_next_, [&](unsigned i) {
                return slots_[i].ready_at <= now;
            });
        if (idx == ~0u)
            return nullptr;
        rr_next_ = idx + 1 == n ? 0 : idx + 1;
        return &slots_[idx];
    }

    void
    tryIssue()
    {
        if (store_stalled_())
            return; // store completion will wake us
        const Tick now = ctx_.now();
        if (Slot *s = selectWarp(now)) {
            issue(*s);
            last_issue_ = now;
            if (anyIssuableSoon())
                wake();
            return;
        }
        // Nothing issuable now: arm a timer for the nearest compute
        // completion; memory completions wake us on their own.
        Tick next = ~Tick{0};
        for (std::uint64_t m = ready_mask_; m; m &= m - 1) {
            const Tick at = slots_[unsigned(__builtin_ctzll(m))].ready_at;
            if (at > now)
                next = std::min(next, at);
        }
        if (next != ~Tick{0})
            ctx_.eq.schedule(next, [this] { wake(); });
        else
            maybeReportDone();
    }

    bool anyIssuableSoon() const { return ready_mask_ != 0; }

    /** The one place a slot changes state; keeps ready_mask_ in step. */
    void
    setState(Slot &s, Slot::St st)
    {
        s.st = st;
        const std::uint64_t bit = std::uint64_t{1}
                                  << unsigned(&s - slots_.data());
        if (st == Slot::St::kReady)
            ready_mask_ |= bit;
        else
            ready_mask_ &= ~bit;
    }

    bool
    store_stalled_() const
    {
        return total_outstanding_stores_ >= params_.max_outstanding_stores;
    }

    void
    issue(Slot &s)
    {
        // Read in place: the stream's storage outlives this call, and
        // nothing below keeps the pointer.
        const WarpInst *inst = s.stream->next();
        if (!inst) {
            beginDrain(s);
            return;
        }
        ++issued_;
        switch (inst->op) {
          case WarpOp::kCompute:
            s.ready_at = ctx_.now() + inst->cycles();
            break;
          case WarpOp::kScratchLoad:
          case WarpOp::kScratchStore:
            ++scratch_insts_;
            s.ready_at = ctx_.now() + params_.scratchpad_latency;
            break;
          case WarpOp::kBarrier:
            setState(s, Slot::St::kAtBarrier);
            ++barrier_waiters_;
            checkBarrierRelease();
            return;
          case WarpOp::kLoad:
            issueGlobal(s, *inst, /*is_store=*/false);
            return;
          case WarpOp::kStore:
            issueGlobal(s, *inst, /*is_store=*/true);
            return;
        }
    }

    void
    issueGlobal(Slot &s, const WarpInst &inst, bool is_store)
    {
        ++mem_insts_;
        // Reference into the coalescer's scratch: valid because nothing
        // below re-enters coalesce() — mem_.access completions arrive
        // through the event queue, never synchronously.
        const auto &lines = coalescer_.coalesce(inst.lane_addrs);
        if (lines.empty()) {
            s.ready_at = ctx_.now() + 1;
            return;
        }
        if (is_store) {
            s.outstanding_stores += unsigned(lines.size());
            total_outstanding_stores_ += unsigned(lines.size());
            Slot *slot = &s;
            for (const Vaddr line : lines) {
                mem_.access(id_, s.asid, line, true, [this, slot] {
                    storeComplete(*slot);
                });
            }
            s.ready_at = ctx_.now() + 1; // stores do not block the warp
        } else {
            setState(s, Slot::St::kWaitMem);
            s.outstanding_loads += unsigned(lines.size());
            Slot *slot = &s;
            for (const Vaddr line : lines) {
                mem_.access(id_, s.asid, line, false, [this, slot] {
                    loadComplete(*slot);
                });
            }
        }
    }

    void
    loadComplete(Slot &s)
    {
        if (--s.outstanding_loads == 0) {
            if (s.st == Slot::St::kWaitMem) {
                setState(s, Slot::St::kReady);
                s.ready_at = ctx_.now() + 1;
            } else if (s.st == Slot::St::kDraining) {
                finishDrainIfIdle(s);
            }
            wake();
        }
    }

    void
    storeComplete(Slot &s)
    {
        --s.outstanding_stores;
        --total_outstanding_stores_;
        if (s.st == Slot::St::kDraining)
            finishDrainIfIdle(s);
        wake();
    }

    void
    beginDrain(Slot &s)
    {
        setState(s, Slot::St::kDraining);
        finishDrainIfIdle(s);
        checkBarrierRelease();
    }

    void
    finishDrainIfIdle(Slot &s)
    {
        if (s.outstanding_loads == 0 && s.outstanding_stores == 0) {
            setState(s, Slot::St::kEmpty);
            s.stream.reset();
            fillSlots();
            checkBarrierRelease();
            maybeReportDone();
            wake();
        }
    }

    void
    checkBarrierRelease()
    {
        if (barrier_waiters_ == 0)
            return;
        unsigned resident = 0;
        for (const auto &s : slots_)
            if (s.st != Slot::St::kEmpty && s.st != Slot::St::kDraining)
                ++resident;
        if (resident != barrier_waiters_)
            return;
        for (auto &s : slots_) {
            if (s.st == Slot::St::kAtBarrier) {
                setState(s, Slot::St::kReady);
                s.ready_at = ctx_.now() + 1;
            }
        }
        barrier_waiters_ = 0;
        fillSlots();
        wake();
    }

    void
    maybeReportDone()
    {
        if (done_reported_ || !on_done_ || !idle())
            return;
        done_reported_ = true;
        on_done_();
    }

    SimContext &ctx_;
    unsigned id_;
    GpuParams params_;
    GpuMemInterface &mem_;

    std::vector<Slot> slots_;
    std::deque<PendingWarp> pending_;
    /// Bit i set <=> slots_[i].st == kReady; written only by setState().
    std::uint64_t ready_mask_ = 0;
    unsigned rr_next_ = 0;
    unsigned greedy_current_ = 0;
    std::uint64_t assign_counter_ = 0;
    unsigned barrier_waiters_ = 0;
    unsigned total_outstanding_stores_ = 0;
    bool issue_pending_ = false;
    bool done_reported_ = false;
    Tick last_issue_ = 0;
    std::function<void()> on_done_;

    Coalescer coalescer_;
    Counter issued_;
    Counter mem_insts_;
    Counter scratch_insts_;
};

} // namespace gvc

#endif // GVC_GPU_CU_HH
