/**
 * @file
 * The interface every cache hierarchy presents to the harness beyond
 * the GpuMemInterface hot path.  Everything here is construction-time
 * or end-of-run: counters, kernel boundaries and record accounting.
 */

#ifndef GVC_MMU_MMU_SYSTEM_HH
#define GVC_MMU_MMU_SYSTEM_HH

#include <cstddef>

#include "gpu/cu.hh"
#include "mmu/boundary.hh"

namespace gvc
{

class CacheArray;
class Iommu;
class PerCuTlbs;
class StatSink;

/** One of the four hierarchies, as the harness sees it. */
class MmuSystem : public GpuMemInterface
{
  public:
    /** The shared IOMMU; null when translation is free (IDEAL MMU). */
    virtual Iommu *iommu() { return nullptr; }

    /** The per-CU TLBs; null when the hierarchy has none. */
    virtual PerCuTlbs *perCuTlbs() { return nullptr; }

    /** The first-level array of CU @p cu, as the CU sees it. */
    virtual CacheArray &l1(unsigned cu) = 0;

    /** The shared L2 array. */
    virtual CacheArray &l2() = 0;

    /** Accesses issued and not yet completed. */
    virtual std::size_t requestsInFlight() const = 0;

    /** Fold still-live cache lines into the lifetime histograms. */
    virtual void flushLifetimes() = 0;

    /** Apply a kernel-boundary policy (§4). */
    virtual void applyBoundary(const BoundaryPolicy &p) = 0;

    /**
     * List every counter of the hierarchy: each component under its
     * scope ("l1", "l2", "directory", "iommu", "percu_tlb", "fbt") and
     * the hierarchy's own rows, zeros included.  Accesses replayed
     * under a synonym's leading name read as "synonym.replays".
     */
    virtual void stats(StatSink &s) const = 0;
};

} // namespace gvc

#endif // GVC_MMU_MMU_SYSTEM_HH
