/**
 * @file
 * Multi-kernel scenarios: launch one workload's kernels N times
 * back-to-back on a single persistent SimContext + memory system, with a
 * selectable kernel-boundary policy (paper §4) applied between rounds.
 * The per-round statistics expose what the paper's single-kernel runs
 * cannot: how much translation traffic a warm virtual cache hierarchy
 * keeps filtering once cache residency outlives TLB-entry lifetime.
 */

#ifndef GVC_HARNESS_SCENARIO_HH
#define GVC_HARNESS_SCENARIO_HH

#include <cstdint>
#include <string>

#include "gpu/gpu.hh"
#include "mem/dram.hh"
#include "mmu/boundary.hh"
#include "mmu/designs.hh"

namespace gvc
{

/**
 * The deterministic event counters every run reports: a RunResult
 * carries them as cumulative totals, a KernelStats as one kernel's (or
 * one snapshot's) values, and gvc_bench gates on exactly this set.
 * Every field is a plain event count (or tick count) so deltas between
 * cumulative snapshots are exact; window-based rate statistics (the
 * IOMMU APC sampler) are deliberately excluded because their windows
 * are anchored at absolute time zero, not at kernel starts.
 */
struct RunCounters
{
    Tick exec_ticks = 0; ///< GPU execution time in cycles.
    std::uint64_t instructions = 0;
    std::uint64_t mem_instructions = 0;
    std::uint64_t tlb_accesses = 0; ///< Per-CU TLBs (if the design has them).
    std::uint64_t tlb_misses = 0;
    std::uint64_t iommu_accesses = 0; ///< Shared IOMMU TLB.
    std::uint64_t page_walks = 0;
    std::uint64_t l1_accesses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t dram_accesses = 0;
    std::uint64_t dram_bytes = 0;
    std::uint64_t fbt_lookups = 0; ///< BT + FT lookups.
    std::uint64_t synonym_replays = 0;

    bool operator==(const RunCounters &) const = default;
};

/**
 * RunCounters' field table: calls @p f(name, field...) once per counter,
 * in export order, passing that member of each object in @p s (so one
 * table serves serializers, field-wise arithmetic, and comparisons).
 */
template <class F, class... S>
void
forEachRunCounter(F &&f, S &...s)
{
    f("exec_ticks", s.exec_ticks...);
    f("instructions", s.instructions...);
    f("mem_instructions", s.mem_instructions...);
    f("tlb_accesses", s.tlb_accesses...);
    f("tlb_misses", s.tlb_misses...);
    f("iommu_accesses", s.iommu_accesses...);
    f("page_walks", s.page_walks...);
    f("l1_accesses", s.l1_accesses...);
    f("l2_accesses", s.l2_accesses...);
    f("dram_accesses", s.dram_accesses...);
    f("dram_bytes", s.dram_bytes...);
    f("fbt_lookups", s.fbt_lookups...);
    f("synonym_replays", s.synonym_replays...);
}

/**
 * One kernel's (or one cumulative snapshot's) counters: RunCounters
 * plus the cache hit counts a per-kernel hit ratio is derived from.
 */
struct KernelStats : RunCounters
{
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;

    bool operator==(const KernelStats &) const = default;
};

/** KernelStats' field table, in the forEachRunCounter() style. */
template <class F, class... S>
void
forEachKernelStat(F &&f, S &...s)
{
    forEachRunCounter(f, s...);
    f("l1_hits", s.l1_hits...);
    f("l2_hits", s.l2_hits...);
}

/**
 * One tenant's share of a multi-tenant run: the cumulative-counter
 * deltas of every slot the scheduler attributed to it, as KernelStats
 * like the per-kernel stats.  Per-tenant deltas partition the run's
 * timeline, so they sum field-exactly to the run's cumulative totals.
 */
struct TenantStats
{
    std::string workload;
    std::uint64_t launches = 0; ///< Kernel launches executed.
    KernelStats stats;

    bool operator==(const TenantStats &) const = default;
};

/** How to run a multi-kernel scenario. */
struct ScenarioSpec
{
    /** Back-to-back rounds of the workload's kernels (>= 1). */
    unsigned rounds = 1;
    /** Policy applied between consecutive rounds. */
    BoundaryPolicy boundary = BoundaryPolicy::keepAll();
};

/** Cumulative counters of the system as it stands right now. */
KernelStats collectKernelStats(SystemUnderTest &sut, Gpu &gpu, Dram &dram,
                               SimContext &ctx);

/** Field-wise @p cur - @p prev (both cumulative snapshots). */
KernelStats kernelDelta(const KernelStats &cur, const KernelStats &prev);

/** Field-wise sum @p a + @p b (for invariant checks). */
KernelStats kernelSum(const KernelStats &a, const KernelStats &b);

} // namespace gvc

#endif // GVC_HARNESS_SCENARIO_HH
