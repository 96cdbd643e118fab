/**
 * @file
 * Whole-SoC configuration (Table 1 of the paper, plus the latency
 * parameters §5 specifies: 10-cycle GPU-L2<->FBT interconnect, 5-cycle
 * FBT lookup).  All experiments are expressed as variations of this
 * structure; mmu/designs.hh builds the paper's named designs from it.
 */

#ifndef GVC_MMU_SOC_CONFIG_HH
#define GVC_MMU_SOC_CONFIG_HH

#include <cstdint>

#include "core/fbt.hh"
#include "gpu/cu.hh"
#include "mem/dram.hh"
#include "mmu/iommu.hh"

namespace gvc
{

/** Full system configuration. */
struct SocConfig
{
    /** GPU organization: 16 CUs x 32 lanes (Table 1). */
    GpuParams gpu;

    // --- GPU caches (Table 1) ---
    std::uint64_t l1_size = 32 * 1024; ///< Per-CU, write-through no alloc.
    unsigned l1_assoc = 8;
    std::uint64_t l2_size = 2 * 1024 * 1024; ///< Shared, write-back.
    unsigned l2_assoc = 16;
    unsigned l2_banks = 8;

    // --- Latencies (cycles at the 700 MHz GPU clock) ---
    Tick l1_latency = 4;
    Tick cu_to_l2 = 10;    ///< Dance-hall NoC hop, each way.
    Tick l2_latency = 16;  ///< Bank access once the port is won.
    Tick l2_to_dir = 10;   ///< L2 to directory hop.
    Tick dir_latency = 30; ///< Directory occupancy.
    /**
     * Per-CU-TLB-miss request path to the IOMMU, each way.  IOMMU
     * requests use the PCIe protocol even on-die (§2.1), so this is much
     * longer than the on-chip hops.
     */
    Tick cu_to_iommu = 80;
    Tick l2_to_iommu = 10; ///< VC design: GPU L2 <-> FBT (§5: 10 cycles).
    Tick fbt_latency = 5;  ///< FBT lookup (§5: 5 cycles).
    Tick percu_tlb_latency = 1;

    // --- Translation structures ---
    unsigned percu_tlb_entries = 32; ///< Fully associative (Table 1).
    unsigned percu_tlb_assoc = 0;    ///< 0 = fully associative.
    bool percu_tlb_infinite = false;
    /**
     * Per-CU TLB fill policy (kTlbFillLru / kTlbFillBypassDead /
     * kTlbFillBypassTrained).  Sweepable independently of the design:
     * the bypass predictors attack the dead-on-arrival population the
     * TlbRefHist exposes.
     */
    unsigned percu_tlb_fill_policy = kTlbFillLru;
    /** Shared IOMMU TLB fill policy (same kTlbFill* values). */
    unsigned iommu_tlb_fill_policy = kTlbFillLru;
    /**
     * TLB replacement policy, both per-CU and shared IOMMU TLBs
     * (kTlbRepl*: true LRU or the RRIP family).  Orthogonal to the
     * fill policy and to the design axis.
     */
    unsigned tlb_replacement = kTlbReplLru;
    /**
     * Max TLB entry reach, log2 pages (both per-CU and shared IOMMU
     * TLBs); 0 keeps the classic one-page entries, 9 admits full 2 MB
     * entries.  See tlb/tlb.hh.
     */
    unsigned tlb_max_reach = 0;
    /** Buddy-merge contiguous TLB entries at insertion time. */
    bool tlb_merge_on_insert = false;
    /**
     * IOMMU fill-time subregion-contiguity coalescing depth (log2
     * pages, capped by tlb_max_reach); 0 disables.  3 = one PTE line.
     */
    unsigned coalesce_max_reach = 0;
    /**
     * Victima-style stashing: per-CU-TLB capacity evictions park their
     * translation in the L2 data array, and a per-CU TLB miss probes
     * the stash before paying the PCIe hop to the IOMMU.
     */
    bool victima_stash = false;
    /**
     * Anonymous-mapping page policy (Vm::PagePolicy): 0 maps every
     * page at 4 KB, 1 backs 2 MB-aligned interiors with 2 MB pages.
     */
    unsigned vm_page_policy = 0;
    IommuParams iommu;
    FbtParams fbt;
    /** Use the FBT as a second-level TLB ("VC With OPT"). */
    bool fbt_as_second_level_tlb = false;
    /**
     * Dynamic synonym remapping table entries (§4.3 extension for
     * synonym-heavy future systems); 0 disables it.
     */
    unsigned synonym_remap_entries = 0;

    /**
     * Dance-hall NoC injection limit: line requests a CU can inject
     * per cycle (0 = unlimited, the default used for the paper-figure
     * calibration).  When set, a divergent 32-line memory instruction
     * injects over 32/rate cycles instead of instantaneously.
     */
    double cu_injection_rate = 0.0;

    // --- Memory ---
    Dram::Params dram; ///< 192 GB/s @ 700 MHz ≈ 274 B/cycle (Table 1).
    std::uint64_t phys_mem_bytes = std::uint64_t{4} << 30;

    // --- Instrumentation ---
    /** Record TLB-entry and cache-line lifetimes (Figure 12). */
    bool track_lifetimes = false;
    /** Classify per-CU TLB misses by cache residency (Figure 2). */
    bool classify_tlb_misses = true;

    // --- Host-side fast paths ---
    /**
     * Last-translation memo in every TLB (per-CU and shared IOMMU):
     * skip the associative scan when the previous page repeats.  Stats
     * are bit-identical either way; off exists for A/B testing.
     */
    bool translation_memo = true;

    /** The nested IommuParams with the memo and reach knobs applied. */
    IommuParams
    iommuParams() const
    {
        IommuParams p = iommu;
        p.tlb_memo = translation_memo;
        p.tlb_max_reach = tlb_max_reach;
        p.tlb_merge_on_insert = tlb_merge_on_insert;
        p.coalesce_max_reach = coalesce_max_reach;
        p.tlb_fill_policy = iommu_tlb_fill_policy;
        p.tlb_replacement = tlb_replacement;
        return p;
    }
};

} // namespace gvc

#endif // GVC_MMU_SOC_CONFIG_HH
