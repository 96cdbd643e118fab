/**
 * @file
 * Kernel-boundary policies (paper §4).  When one kernel finishes and the
 * next launches on the same device, the runtime chooses how much
 * translation and cache state survives: everything (back-to-back kernels
 * of one process), the L1 caches only, or nothing (a full TLB shootdown,
 * e.g. on a context switch).  Each MMU system interprets a policy
 * according to its own inclusivity rules — see applyBoundary() in the
 * mmu system headers and core/virtual_hierarchy.hh.
 *
 * Policies are encoded into a single byte so traces (.gvct v2) can carry
 * them; the byte layout is part of the trace format and must not change.
 */

#ifndef GVC_MMU_BOUNDARY_HH
#define GVC_MMU_BOUNDARY_HH

#include <cstdint>
#include <optional>
#include <string>

namespace gvc
{

/**
 * What to drop at a kernel boundary.  The flags are requests; a design
 * may legally drop *more* than requested to preserve its invariants
 * (e.g. the full-VC design's FBT is inclusive of the caches, so dropping
 * the FBT forces the caches out too), but never less.
 */
struct BoundaryPolicy
{
    bool flush_l1 = false;       ///< Invalidate every per-CU L1 cache.
    bool flush_l2 = false;       ///< Invalidate the shared L2 cache.
    bool flush_fbt = false;      ///< Drop the FBT / synonym state (VC).
    bool shootdown_tlbs = false; ///< Invalidate per-CU TLBs, IOMMU TLB, PWC.

    /// Keep everything: back-to-back launches of the same process.
    static BoundaryPolicy keepAll() { return {}; }

    /// Drop only the per-CU L1 state (cheap local invalidation).
    static BoundaryPolicy flushL1() { return {true, false, false, false}; }

    /// Drop all cache and translation state: kernel k starts cold.
    static BoundaryPolicy flushAll() { return {true, true, true, true}; }

    /// TLB shootdown only; physical caches may legally survive.
    static BoundaryPolicy shootdown()
    {
        return {false, false, false, true};
    }

    /** One byte, stable trace encoding (bit per flag). */
    std::uint8_t
    encode() const
    {
        return std::uint8_t((flush_l1 ? 1u : 0u) | (flush_l2 ? 2u : 0u) |
                            (flush_fbt ? 4u : 0u) |
                            (shootdown_tlbs ? 8u : 0u));
    }

    /** Inverse of encode(); nullopt when @p b has unknown bits set. */
    static std::optional<BoundaryPolicy>
    decode(std::uint8_t b)
    {
        if (b >= kBoundaryPolicyLimit)
            return std::nullopt;
        BoundaryPolicy p;
        p.flush_l1 = (b & 1u) != 0;
        p.flush_l2 = (b & 2u) != 0;
        p.flush_fbt = (b & 4u) != 0;
        p.shootdown_tlbs = (b & 8u) != 0;
        return p;
    }

    bool
    operator==(const BoundaryPolicy &o) const
    {
        return encode() == o.encode();
    }
    bool operator!=(const BoundaryPolicy &o) const { return !(*this == o); }

    /// First encoded value that is NOT a valid policy byte.
    static constexpr std::uint8_t kBoundaryPolicyLimit = 0x10;
};

/** Preset name for the CLI/reports; "custom" for other combinations. */
inline const char *
boundaryPolicyName(const BoundaryPolicy &p)
{
    if (p == BoundaryPolicy::keepAll())
        return "keep-all";
    if (p == BoundaryPolicy::flushL1())
        return "flush-l1";
    if (p == BoundaryPolicy::flushAll())
        return "flush-all";
    if (p == BoundaryPolicy::shootdown())
        return "shootdown";
    return "custom";
}

/** Parse a preset name; false when @p name is not a known preset. */
inline bool
boundaryPolicyFromName(const std::string &name, BoundaryPolicy &out)
{
    if (name == "keep-all") {
        out = BoundaryPolicy::keepAll();
    } else if (name == "flush-l1") {
        out = BoundaryPolicy::flushL1();
    } else if (name == "flush-all") {
        out = BoundaryPolicy::flushAll();
    } else if (name == "shootdown") {
        out = BoundaryPolicy::shootdown();
    } else {
        return false;
    }
    return true;
}

} // namespace gvc

#endif // GVC_MMU_BOUNDARY_HH
