/**
 * @file
 * SlabPool: recycled fixed-type records for in-flight operations.
 *
 * Every memory request, IOMMU translation and page walk lives in one
 * record from issue to completion; the event continuations that carry
 * it along capture only the owner's @c this and the record pointer.
 * Records come from slabs of kSlabSize objects that never move, so a
 * pointer stays valid while its record is in use, and released records
 * go on a free list for the next request.  The pool owns every slab, so
 * records still in flight when the simulation is torn down are freed
 * with it.
 *
 * acquire() hands back a record in whatever state its last user left
 * it: the caller assigns every field it reads.  Host-side only — which
 * record serves which request changes no simulated ordering.  Under
 * AddressSanitizer a released record is poisoned until it is acquired
 * again, so a continuation that touches its record after release is
 * reported instead of reading a recycled one.
 */

#ifndef GVC_SIM_SLAB_POOL_HH
#define GVC_SIM_SLAB_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GVC_SLAB_POISON 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define GVC_SLAB_POISON 1
#endif
#ifdef GVC_SLAB_POISON
#include <sanitizer/asan_interface.h>
#endif

namespace gvc
{

template <typename T>
class SlabPool
{
  public:
    static constexpr std::size_t kSlabSize = 64;

    SlabPool() = default;
    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    ~SlabPool()
    {
        // The slabs' destructors run over every record, released or not.
        for (auto &slab : slabs_)
            unpoison(slab.get(), kSlabSize);
    }

    /** A record for a new operation; valid until release(). */
    T *
    acquire()
    {
        if (free_.empty()) {
            slabs_.push_back(std::make_unique<T[]>(kSlabSize));
            T *slab = slabs_.back().get();
            for (std::size_t i = kSlabSize; i-- > 0;) {
                poison(slab + i);
                free_.push_back(slab + i);
            }
        }
        T *r = free_.back();
        free_.pop_back();
        unpoison(r, 1);
        return r;
    }

    /** Return @p r to the pool; the caller must not touch it again. */
    void
    release(T *r)
    {
        poison(r);
        free_.push_back(r);
    }

    /** Records acquired and not yet released. */
    std::size_t
    inUse() const
    {
        return slabs_.size() * kSlabSize - free_.size();
    }

  private:
#ifdef GVC_SLAB_POISON
    static void poison(T *r) { ASAN_POISON_MEMORY_REGION(r, sizeof(T)); }
    static void
    unpoison(T *r, std::size_t n)
    {
        ASAN_UNPOISON_MEMORY_REGION(r, n * sizeof(T));
    }
#else
    static void poison(T *) {}
    static void unpoison(T *, std::size_t) {}
#endif

    std::vector<std::unique_ptr<T[]>> slabs_;
    std::vector<T *> free_;
};

} // namespace gvc

#endif // GVC_SIM_SLAB_POOL_HH
