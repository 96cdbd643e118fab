/**
 * @file
 * The per-access request record of the GPU memory hierarchies, and the
 * request trains that carry records over fixed-delay hops.
 *
 * GpuMemInterface::access moves the CU's completion into one record;
 * every later hop — injection, TLB, the IOMMU round trip, the caches,
 * MSHR merging and the fills — carries only the record.  No closure on
 * the line-access path spills to the callback pool or re-copies the
 * completion.  The record runs its completion once, when it is recycled
 * (RequestPool::finish).
 *
 * A fixed-delay hop goes through its Hop: hop.at(when, req) runs
 * owner.fn(req) at tick @c when.  Divergent warps put many line
 * requests on one hop at one tick, so a Hop keeps one open train: a
 * request joins it, linked through MemRequest::hop_next, when the train
 * is for the same tick, its event is still the last one filed under
 * that tick (EventQueue::isTail) and it has not started running.
 * Otherwise the hop schedules one new event that runs a new train.
 *
 * Why this is exact: a request that joins a train would have got its
 * own event right behind the train's event, since that event is the
 * tick's last.  Members run in join order, one after another, so each
 * runs at the tick and FIFO position its own event would have had; an
 * event a member schedules for the same tick lands behind the whole
 * train, where it would also have landed behind the members' own
 * events.  A push made while the train runs finds it closed and starts
 * a new event, which is filed behind everything already in the tick.
 * No simulated tick, order or counter moves — only the number of
 * events (EventQueue::executed) falls.
 *
 * A Hop remembers the slot of its open train's event, so it must not
 * outlive an EventQueue::reset() that drops pending events (only tests
 * reset a queue).
 */

#ifndef GVC_MMU_MEM_REQUEST_HH
#define GVC_MMU_MEM_REQUEST_HH

#include <cstdint>
#include <unordered_map>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/slab_pool.hh"
#include "sim/types.hh"

namespace gvc
{

/** A translation as the IOMMU answers it (Iommu writes MemRequest::resp). */
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

/** One line access in flight through a memory hierarchy. */
struct MemRequest
{
    unsigned cu = 0;
    Asid asid = 0;
    bool is_store = false;
    Vaddr line_va = 0;
    Vpn vpn = 0;
    Paddr line_pa = 0;
    /**
     * The translation: the IOMMU's answer once its round trip returns,
     * or the ppn/perms of a per-CU TLB or Victima stash hit, which a
     * later hop still needs (the L1-only VC fills its L1 with perms).
     */
    IommuResponse resp;
    /** The requester's completion; runs once, in RequestPool::finish. */
    Callback done;
    /** Next waiter on the same MSHR entry (MshrTable's FIFO). */
    MemRequest *mshr_next = nullptr;
    /** Next request sharing one IOMMU translation of the same page. */
    MemRequest *xlate_next = nullptr;
    /** Next request in the same Hop train. */
    MemRequest *hop_next = nullptr;
};

/**
 * Same-page misses merged onto one IOMMU translation, oldest first,
 * chained through MemRequest::xlate_next.  The owner picks the key
 * (which requests may share a translation); the first request under a
 * key asks the IOMMU, and its answer releases them all.
 */
class XlateMerge
{
  public:
    /** Queue @p req under @p key; true when it is the first there. */
    bool
    join(std::uint64_t key, MemRequest *req)
    {
        req->xlate_next = nullptr;
        auto [it, fresh] = chains_.try_emplace(key, Chain{req, req});
        if (!fresh)
            it->second.tail = it->second.tail->xlate_next = req;
        return fresh;
    }

    /** Forget @p key and call @p fn on its requests; @p fn may hand
     *  each one on. */
    template <typename Fn>
    void
    release(std::uint64_t key, Fn &&fn)
    {
        const Chain chain = chains_.extract(key).mapped();
        for (MemRequest *r = chain.head; r;) {
            MemRequest *next = r->xlate_next;
            fn(r);
            r = next;
        }
    }

  private:
    struct Chain
    {
        MemRequest *head;
        MemRequest *tail;
    };
    std::unordered_map<std::uint64_t, Chain> chains_;
};

/**
 * One fixed-delay hop of a hierarchy: at(when, req) runs
 * (owner.*Fn)(req) at tick @p when, batching requests that would run
 * back to back at one tick into one event (see the file comment).
 */
template <typename Owner, void (Owner::*Fn)(MemRequest *)>
class Hop
{
  public:
    Hop(EventQueue &eq, Owner &owner) : eq_(eq), owner_(owner) {}

    Hop(const Hop &) = delete;
    Hop &operator=(const Hop &) = delete;

    /** Run the hop's function on @p req at absolute tick @p when. */
    void
    at(Tick when, MemRequest *req)
    {
        req->hop_next = nullptr;
        if (tail_ && when == when_ && eq_.isTail(when, slot_)) {
            tail_->hop_next = req;
            tail_ = req;
            return;
        }
        head_ = tail_ = req;
        when_ = when;
        slot_ = eq_.schedule(when, [this, req] { run(req); });
    }

    /** Run the hop's function on @p req @p delay ticks from now. */
    void in(Tick delay, MemRequest *req) { at(eq_.now() + delay, req); }

  private:
    /** Run the train starting at @p r, in join order. */
    void
    run(MemRequest *r)
    {
        // The open train starts running: later pushes need a new event.
        if (r == head_)
            head_ = tail_ = nullptr;
        while (r) {
            // Read the link first: fn may hand r to a hop, this one too.
            MemRequest *next = r->hop_next;
            (owner_.*Fn)(r);
            r = next;
        }
    }

    EventQueue &eq_;
    Owner &owner_;
    MemRequest *head_ = nullptr; ///< The open train, oldest first ...
    MemRequest *tail_ = nullptr; ///< ... and newest; null when closed.
    Tick when_ = 0;              ///< The open train's tick.
    std::uint32_t slot_ = 0;     ///< The open train's event.
};

/** The records of one hierarchy's in-flight accesses. */
class RequestPool
{
  public:
    /** A record for a new access; owns @p on_done until finish(). */
    MemRequest *
    make(unsigned cu, Asid asid, Vaddr line_va, bool is_store,
         Callback &&on_done)
    {
        MemRequest *r = pool_.acquire();
        r->cu = cu;
        r->asid = asid;
        r->is_store = is_store;
        r->line_va = line_va;
        r->vpn = pageOf(line_va);
        r->done = std::move(on_done);
        return r;
    }

    /** Complete @p r: run its completion, then recycle the record. */
    void
    finish(MemRequest *r)
    {
        r->done();
        r->done = nullptr;
        pool_.release(r);
    }

    /** Accesses issued and not yet finished. */
    std::size_t inFlight() const { return pool_.inUse(); }

  private:
    SlabPool<MemRequest> pool_;
};

} // namespace gvc

#endif // GVC_MMU_MEM_REQUEST_HH
