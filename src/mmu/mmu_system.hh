/**
 * @file
 * The interface every cache hierarchy presents to the harness beyond
 * the GpuMemInterface hot path.  Everything here is construction-time
 * or end-of-run: counters, kernel boundaries and record accounting.
 */

#ifndef GVC_MMU_MMU_SYSTEM_HH
#define GVC_MMU_MMU_SYSTEM_HH

#include <cstddef>
#include <cstdint>

#include "gpu/cu.hh"
#include "mmu/boundary.hh"

namespace gvc
{

class CacheArray;
class Iommu;
class PerCuTlbs;
class StatRegistry;

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

    /** Accesses replayed under a synonym's leading name. */
    virtual std::uint64_t synonymReplays() const { return 0; }

    /** Fold still-live cache lines into the lifetime histograms. */
    virtual void flushLifetimes() = 0;

    /** Apply a kernel-boundary policy (§4). */
    virtual void applyBoundary(const BoundaryPolicy &p) = 0;

    /**
     * Register the statistics that belong to this hierarchy under
     * dotted names; the shared IOMMU's are registered by the caller.
     */
    virtual void registerStats(StatRegistry &) {}
};

} // namespace gvc

#endif // GVC_MMU_MMU_SYSTEM_HH
