/**
 * @file
 * Named MMU designs (Table 2 of the paper, plus the Figure 10/11
 * comparison points and the reach extensions) as data: one row per
 * design naming its label, CLI spellings, hierarchy and SocConfig
 * overrides, and a uniform wrapper that builds any of them over a
 * shared Vm/Dram so the harness can sweep designs.
 */

#ifndef GVC_MMU_DESIGNS_HH
#define GVC_MMU_DESIGNS_HH

#include <array>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "core/virtual_hierarchy.hh"
#include "mmu/baseline_system.hh"
#include "mmu/boundary.hh"
#include "mmu/ideal_system.hh"
#include "mmu/l1vc_system.hh"
#include "mmu/mmu_system.hh"
#include "mmu/per_cu_tlbs.hh"
#include "mmu/soc_config.hh"

namespace gvc
{

/**
 * The MMU designs evaluated in the paper.  A new design is appended at
 * the end (runConfigKey hashes the value) plus one row in kDesignRows.
 */
enum class MmuDesign {
    kIdeal,            ///< IDEAL MMU: free translation.
    kBaseline512,      ///< 32-entry per-CU TLBs, 512-entry IOMMU TLB.
    kBaseline16K,      ///< 32-entry per-CU TLBs, 16K-entry IOMMU TLB.
    kBaselineLargeTlb, ///< 128-entry per-CU TLBs, 16K IOMMU (Fig. 10).
    kVcNoOpt,          ///< Full VC hierarchy, 512-entry IOMMU TLB.
    kVcOpt,            ///< Full VC + FBT as second-level TLB.
    kL1Vc32,           ///< L1-only VC, 32-entry per-CU TLBs (Fig. 11).
    kL1Vc128,          ///< L1-only VC, 128-entry per-CU TLBs (Fig. 11).
    // --- Reach-generalized extensions beyond Table 2 ---
    kBase2MB,          ///< Baseline 512 + 2 MB pages, reach-9 TLBs.
    kBaseCoalesced,    ///< Baseline 512 + coalesced fills, buddy merge.
    kBaseVictima,      ///< Baseline 512 + Victima-style L2 stashing.
};

/**
 * The four cache hierarchies every design is built on.  The per-CU TLB
 * and IOMMU sizes, bandwidth and reach knobs that tell designs on one
 * hierarchy apart are SocConfig overrides in the design's row.
 */
enum class Hierarchy {
    kIdeal,     ///< Physical caches, free translation (IdealMmuSystem).
    kPhysical,  ///< Physical caches behind per-CU TLBs (Baseline).
    kVirtual,   ///< Virtual L1s and L2, FBT at the IOMMU (§4).
    kL1Virtual, ///< Virtual L1s, per-CU TLBs, physical L2 (§5.4).
};

/** One design: everything that makes it itself, in one place. */
struct DesignRow
{
    MmuDesign design;
    const char *label; ///< The paper's label; designName().
    /** Canonical CLI spellings (see canonicalDesignSpelling()). */
    std::array<const char *, 2> spellings;
    Hierarchy hierarchy;
    /** The design's SocConfig overrides, applied by configFor(). */
    void (*overrides)(SocConfig &);
};

/** The per-CU and IOMMU TLB sizes most rows differ by. */
template <unsigned PerCuEntries, unsigned IommuEntries>
void
tlbSizes(SocConfig &c)
{
    c.percu_tlb_entries = PerCuEntries;
    c.iommu.tlb_entries = IommuEntries;
}

/** Every design, in MmuDesign order (runConfigKey hashes the value). */
inline constexpr DesignRow kDesignRows[] = {
    {MmuDesign::kIdeal, "IDEAL MMU", {"ideal"}, Hierarchy::kIdeal,
     [](SocConfig &c) {
         c.percu_tlb_infinite = true;
         c.iommu.tlb_infinite = true;
         c.iommu.unlimited_bw = true;
     }},
    {MmuDesign::kBaseline512, "Baseline 512", {"baseline512"},
     Hierarchy::kPhysical, tlbSizes<32, 512>},
    {MmuDesign::kBaseline16K, "Baseline 16K", {"baseline16k"},
     Hierarchy::kPhysical, tlbSizes<32, 16 * 1024>},
    {MmuDesign::kBaselineLargeTlb, "Large per-CU TLBs",
     {"baselinelargetlb"}, Hierarchy::kPhysical,
     tlbSizes<128, 16 * 1024>},
    {MmuDesign::kVcNoOpt, "VC W/O OPT", {"vc", "vcnoopt"},
     Hierarchy::kVirtual,
     [](SocConfig &c) {
         c.iommu.tlb_entries = 512;
         c.fbt_as_second_level_tlb = false;
     }},
    {MmuDesign::kVcOpt, "VC With OPT", {"vcopt"}, Hierarchy::kVirtual,
     [](SocConfig &c) {
         c.iommu.tlb_entries = 512;
         c.fbt_as_second_level_tlb = true;
     }},
    {MmuDesign::kL1Vc32, "L1-Only VC (32)", {"l1vc32"},
     Hierarchy::kL1Virtual, tlbSizes<32, 16 * 1024>},
    {MmuDesign::kL1Vc128, "L1-Only VC (128)", {"l1vc128"},
     Hierarchy::kL1Virtual, tlbSizes<128, 16 * 1024>},
    // Baseline 512 sizes; the OS backs 2 MB-aligned interiors of
    // anonymous regions with 2 MB pages and the TLBs hold them at full
    // reach, so one entry spans up to 512 pages.
    {MmuDesign::kBase2MB, "Base 2MB", {"base2mb"}, Hierarchy::kPhysical,
     [](SocConfig &c) {
         tlbSizes<32, 512>(c);
         c.vm_page_policy = unsigned(Vm::PagePolicy::k2mInterior);
         c.tlb_max_reach = kMaxReachLog2;
     }},
    // Baseline 512 sizes and plain 4 KB pages; reach comes from
    // fill-time contiguity coalescing (up to one PTE line, free) plus
    // insertion-time buddy merging in the TLBs.
    {MmuDesign::kBaseCoalesced, "Base Coalesced", {"basecoalesced"},
     Hierarchy::kPhysical,
     [](SocConfig &c) {
         tlbSizes<32, 512>(c);
         c.tlb_max_reach = kMaxReachLog2;
         c.tlb_merge_on_insert = true;
         c.coalesce_max_reach = 3;
     }},
    // Baseline 512 sizes; per-CU TLB capacity evictions stash their
    // translation in the L2 data array and misses probe the stash
    // before paying the PCIe hop to the IOMMU.
    {MmuDesign::kBaseVictima, "Base Victima", {"basevictima"},
     Hierarchy::kPhysical,
     [](SocConfig &c) {
         tlbSizes<32, 512>(c);
         c.victima_stash = true;
     }},
};

constexpr bool
designRowsInEnumOrder()
{
    for (unsigned i = 0; i < std::size(kDesignRows); ++i)
        if (kDesignRows[i].design != MmuDesign(i))
            return false;
    return true;
}
static_assert(designRowsInEnumOrder(),
              "kDesignRows must list every MmuDesign in enum order");

inline const DesignRow &
designRow(MmuDesign d)
{
    return kDesignRows[unsigned(d)];
}

/** Human-readable design name (matches the paper's labels). */
inline const char *
designName(MmuDesign d)
{
    return designRow(d).label;
}

/** designName() inverse; false when @p name is not a known label. */
inline bool
designFromName(const std::string &name, MmuDesign &out)
{
    for (const DesignRow &row : kDesignRows) {
        if (name == row.label) {
            out = row.design;
            return true;
        }
    }
    return false;
}

/** Specialize a base SocConfig for one design (Table 2). */
inline SocConfig
configFor(MmuDesign d, SocConfig cfg = {})
{
    designRow(d).overrides(cfg);
    return cfg;
}

/** Table 2 plus the comparison and extension designs, one per row. */
inline std::string
designTable()
{
    const auto entries = [](unsigned n) {
        return (n % 1024 ? std::to_string(n)
                         : std::to_string(n / 1024) + "K") +
               "-entry";
    };
    const char *hierarchies[] = {"ideal", "physical", "virtual",
                                 "L1 virtual"};
    const char *format = "%-18s| %-10s | %-19s | %-25s | %s\n";
    char line[160];
    std::snprintf(line, sizeof(line), format, "Design", "Hierarchy",
                  "Per-CU TLB", "IOMMU TLB", "B/W Limit");
    std::string out = line;
    out += "------------------+------------+---------------------+"
           "---------------------------+---------------\n";
    for (const DesignRow &row : kDesignRows) {
        const SocConfig c = configFor(row.design);
        const std::string reach = c.tlb_max_reach ? ", reach" : "";
        const std::string percu =
            row.hierarchy == Hierarchy::kVirtual ? "-"
            : c.percu_tlb_infinite
                ? "Infinite"
                : entries(c.percu_tlb_entries) + reach +
                      (c.victima_stash ? " + L2 stash" : "");
        const std::string iommu =
            c.iommu.tlb_infinite
                ? "Infinite"
                : entries(c.iommu.tlb_entries) + reach +
                      (c.fbt_as_second_level_tlb
                           ? " + " + entries(c.fbt.entries) + " FBT"
                           : "");
        std::snprintf(line, sizeof(line), format, row.label,
                      hierarchies[unsigned(row.hierarchy)],
                      percu.c_str(), iommu.c_str(),
                      c.iommu.unlimited_bw ? "Infinite" : "1 Access/Cycle");
        out += line;
    }
    return out;
}

/** Build the hierarchy @p h over a shared Vm and Dram. */
inline std::unique_ptr<MmuSystem>
buildHierarchy(Hierarchy h, SimContext &ctx, const SocConfig &cfg, Vm &vm,
               Dram &dram)
{
    switch (h) {
      case Hierarchy::kIdeal:
        return std::make_unique<IdealMmuSystem>(ctx, cfg, vm, dram);
      case Hierarchy::kPhysical:
        return std::make_unique<BaselineMmuSystem>(ctx, cfg, vm, dram);
      case Hierarchy::kVirtual:
        return std::make_unique<VirtualCacheSystem>(ctx, cfg, vm, dram);
      case Hierarchy::kL1Virtual:
        return std::make_unique<L1OnlyVcSystem>(ctx, cfg, vm, dram);
    }
    return nullptr;
}

/** Owns whichever hierarchy a design's row names. */
class SystemUnderTest
{
  public:
    SystemUnderTest(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                    Dram &dram, MmuDesign design)
        : dram_(dram),
          sys_(buildHierarchy(designRow(design).hierarchy, ctx, cfg, vm,
                              dram))
    {
    }

    MmuSystem &system() { return *sys_; }

    /** The DRAM the hierarchy was built over. */
    Dram &dram() { return dram_; }

    /** The shared IOMMU, when the design has one. */
    Iommu *iommu() { return sys_->iommu(); }

    /**
     * Access and page-walk records not yet back in their pools (the
     * IOMMU works on the access's own record); zero whenever the event
     * queue has drained.
     */
    std::size_t
    recordsInFlight()
    {
        std::size_t n = sys_->requestsInFlight();
        if (Iommu *io = iommu())
            n += io->ptw().walksInFlight();
        return n;
    }

    /** The concrete hierarchy, or null when the design uses another. */
    IdealMmuSystem *ideal() { return as<IdealMmuSystem>(); }
    BaselineMmuSystem *baseline() { return as<BaselineMmuSystem>(); }
    VirtualCacheSystem *vc() { return as<VirtualCacheSystem>(); }
    L1OnlyVcSystem *l1vc() { return as<L1OnlyVcSystem>(); }

    /**
     * Fold TLB entry reference-count histograms into @p percu (per-CU
     * TLBs, where the design has them) and @p iommu (the shared IOMMU
     * TLB).  Still-resident entries are flushed in first, so call once
     * at simulation end.
     */
    void
    collectTlbRefs(TlbRefHist &percu, TlbRefHist &iommu_hist)
    {
        if (PerCuTlbs *tlbs = sys_->perCuTlbs())
            tlbs->collectRefs(percu);
        if (Iommu *io = iommu()) {
            io->tlb().flushResidentRefs();
            iommu_hist.merge(io->tlb().refHist());
        }
    }

  private:
    template <class System>
    System *
    as()
    {
        return dynamic_cast<System *>(sys_.get());
    }

    Dram &dram_;
    std::unique_ptr<MmuSystem> sys_;
};

} // namespace gvc

#endif // GVC_MMU_DESIGNS_HH
