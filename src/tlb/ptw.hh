/**
 * @file
 * Multi-threaded hardware page-table walker (Table 1: 16 concurrent
 * walks) with a shared page-walk cache.  Each walk visits the real PTE
 * addresses produced by the process page table; upper-level hits in the
 * PWC skip the memory access for that level.
 */

#ifndef GVC_TLB_PTW_HH
#define GVC_TLB_PTW_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "mem/dram.hh"
#include "sim/callback.hh"
#include "mem/vm.hh"
#include "sim/sim_context.hh"
#include "sim/slab_pool.hh"
#include "sim/stats.hh"
#include "tlb/pwc.hh"

namespace gvc
{

/** Configuration for the walker. */
struct PtwParams
{
    /** Maximum concurrent walks; further requests queue FIFO. */
    unsigned max_concurrent = 16;
    /** Latency of a PWC hit, cycles. */
    Tick pwc_hit_latency = 2;
    /** Fixed pipeline latency to start a walk. */
    Tick dispatch_latency = 2;
};

/**
 * The walker.  walk() is asynchronous; completion (or fault, signalled by
 * an empty optional) is delivered through the callback.
 */
class PageTableWalker
{
  public:
    using DoneFn = SmallFunc<void(std::optional<Translation>)>;

    PageTableWalker(SimContext &ctx, Vm &vm, Dram &dram,
                    const PtwParams &params = {})
        : ctx_(ctx), vm_(vm), dram_(dram), params_(params)
    {
    }

    /** Begin a walk of (asid, vpn); @p on_done fires at completion. */
    void
    walk(Asid asid, Vpn vpn, DoneFn on_done)
    {
        ++requests_;
        WalkState *state = states_.acquire();
        state->asid = asid;
        state->vpn = vpn;
        state->done = std::move(on_done);
        state->issued = ctx_.now();
        pending_.push_back(state);
        pump();
    }

    PageWalkCache &pwc() { return pwc_; }
    const PageWalkCache &pwc() const { return pwc_; }

    unsigned active() const { return active_; }
    /** Walks requested and not yet completed (queued or running). */
    std::size_t walksInFlight() const { return states_.inUse(); }

    void
    stats(StatSink &s) const
    {
        s("requests", requests_);
        s("completed", completed_);
        s("latency_sum", latency_sum_);
        s("large_walks", large_walks_);
    }

  private:
    /**
     * One walk from request to completion.  It is owned by the pending
     * queue, then by exactly one pending event at a time (the step chain
     * is linear), and recycled in finish().
     */
    struct WalkState
    {
        Asid asid = 0;
        Vpn vpn = 0;
        DoneFn done;
        Tick issued = 0;
        WalkPath path;
        unsigned level = 0;
    };

    /** Start queued walks while thread slots are free. */
    void
    pump()
    {
        while (active_ < params_.max_concurrent && !pending_.empty()) {
            WalkState *state = pending_.front();
            pending_.pop_front();
            state->level = 0;
            ++active_;
            state->path = vm_.pageTable(state->asid).walk(state->vpn);
            ctx_.eq.scheduleIn(params_.dispatch_latency,
                               [this, state] { step(state); });
        }
    }

    /** Process one level of the walk, then recurse via events. */
    void
    step(WalkState *state)
    {
        if (state->level >= state->path.levels) {
            finish(state);
            return;
        }
        const Paddr pte = state->path.pte_addrs[state->level];
        ++state->level;
        // The PWC holds upper-level entries only (PML4E/PDPTE/PDE, as
        // in real designs); the leaf PTE access always goes to memory.
        const bool leaf = state->level == state->path.levels &&
                          state->path.result.has_value();
        if (!leaf && pwc_.lookup(pte)) {
            ctx_.eq.scheduleIn(params_.pwc_hit_latency,
                               [this, state] { step(state); });
        } else {
            dram_.access(kPteFetchBytes, [this, state, pte, leaf] {
                if (!leaf)
                    pwc_.insert(pte);
                step(state);
            });
        }
    }

    void
    finish(WalkState *state)
    {
        ++completed_;
        if (state->path.result && state->path.result->large)
            ++large_walks_;
        latency_sum_ += ctx_.now() - state->issued;
        --active_;
        DoneFn done = std::move(state->done);
        const std::optional<Translation> result = state->path.result;
        states_.release(state);
        // Hand the slot to a queued walk before delivering the result so
        // completion callbacks observe a fully-consistent walker.
        pump();
        done(result);
    }

    /** A PTE fetch moves one page-table line. */
    static constexpr std::uint64_t kPteFetchBytes = 64;

    SimContext &ctx_;
    Vm &vm_;
    Dram &dram_;
    PtwParams params_;
    PageWalkCache pwc_;
    std::deque<WalkState *> pending_;
    SlabPool<WalkState> states_;
    unsigned active_ = 0;
    Counter requests_;
    Counter completed_;
    Counter large_walks_; ///< Walks that ended at a 2 MB leaf.
    /// Cycles from walk() to completion, queueing included.
    Counter latency_sum_;
};

} // namespace gvc

#endif // GVC_TLB_PTW_HH
