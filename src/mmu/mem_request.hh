/**
 * @file
 * The per-access request record of the GPU memory hierarchies.
 *
 * GpuMemInterface::access moves the CU's completion into one record;
 * every later hop — injection, TLB, the IOMMU round trip, the caches,
 * MSHR merging and the fills — schedules a closure capturing only the
 * owner's @c this and the record.  That closure is 16 bytes, so it is
 * stored inline in the event slot and relocates by a byte copy; nothing
 * on the line-access path spills to the callback pool or re-copies the
 * completion.  The record runs its completion once, when it is recycled
 * (RequestPool::finish).
 */

#ifndef GVC_MMU_MEM_REQUEST_HH
#define GVC_MMU_MEM_REQUEST_HH

#include "sim/callback.hh"
#include "sim/slab_pool.hh"
#include "sim/types.hh"
#include "tlb/iommu.hh"

namespace gvc
{

/** One line access in flight through a memory hierarchy. */
struct MemRequest
{
    unsigned cu = 0;
    Asid asid = 0;
    bool is_store = false;
    /** Physical designs: fill the requesting CU's L1 on a load return. */
    bool fill_l1 = true;
    Vaddr line_va = 0;
    Vpn vpn = 0;
    Paddr line_pa = 0;
    /**
     * The translation: the IOMMU's answer once its round trip returns,
     * or the ppn/perms of a hit a later hop still needs (a Victima stash
     * hit, an L1-only-VC per-CU TLB hit).
     */
    IommuResponse resp;
    /** The requester's completion; runs once, in RequestPool::finish. */
    Callback done;
    /** Next waiter on the same MSHR entry (MshrTable's FIFO). */
    MemRequest *mshr_next = nullptr;
    /** Next request sharing one IOMMU translation of the same page. */
    MemRequest *xlate_next = nullptr;
};

/** Requests waiting on one IOMMU translation, oldest first. */
struct XlateChain
{
    MemRequest *head = nullptr;
    MemRequest *tail = nullptr;

    void
    append(MemRequest *r)
    {
        r->xlate_next = nullptr;
        if (tail)
            tail->xlate_next = r;
        else
            head = r;
        tail = r;
    }

    /** Call @p fn on each request in order; @p fn may hand it on. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (MemRequest *r = head; r;) {
            MemRequest *next = r->xlate_next;
            fn(r);
            r = next;
        }
    }
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
        r->fill_l1 = true;
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
