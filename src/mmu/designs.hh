/**
 * @file
 * Named MMU designs (Table 2 of the paper, plus the Figure 10/11
 * comparison points) and a uniform wrapper that builds any of them over
 * a shared Vm/Dram so the harness can sweep designs.
 */

#ifndef GVC_MMU_DESIGNS_HH
#define GVC_MMU_DESIGNS_HH

#include <memory>
#include <string>

#include "core/virtual_hierarchy.hh"
#include "mmu/baseline_system.hh"
#include "mmu/boundary.hh"
#include "mmu/ideal_system.hh"
#include "mmu/l1vc_system.hh"
#include "mmu/soc_config.hh"

namespace gvc
{

/** The MMU designs evaluated in the paper. */
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

/** Human-readable design name (matches the paper's labels). */
inline const char *
designName(MmuDesign d)
{
    switch (d) {
      case MmuDesign::kIdeal: return "IDEAL MMU";
      case MmuDesign::kBaseline512: return "Baseline 512";
      case MmuDesign::kBaseline16K: return "Baseline 16K";
      case MmuDesign::kBaselineLargeTlb: return "Large per-CU TLBs";
      case MmuDesign::kVcNoOpt: return "VC W/O OPT";
      case MmuDesign::kVcOpt: return "VC With OPT";
      case MmuDesign::kL1Vc32: return "L1-Only VC (32)";
      case MmuDesign::kL1Vc128: return "L1-Only VC (128)";
      case MmuDesign::kBase2MB: return "Base 2MB";
      case MmuDesign::kBaseCoalesced: return "Base Coalesced";
      case MmuDesign::kBaseVictima: return "Base Victima";
    }
    return "?";
}

/** designName() inverse; false when @p name is not a known label. */
inline bool
designFromName(const std::string &name, MmuDesign &out)
{
    for (const MmuDesign d :
         {MmuDesign::kIdeal, MmuDesign::kBaseline512,
          MmuDesign::kBaseline16K, MmuDesign::kBaselineLargeTlb,
          MmuDesign::kVcNoOpt, MmuDesign::kVcOpt, MmuDesign::kL1Vc32,
          MmuDesign::kL1Vc128, MmuDesign::kBase2MB,
          MmuDesign::kBaseCoalesced, MmuDesign::kBaseVictima}) {
        if (name == designName(d)) {
            out = d;
            return true;
        }
    }
    return false;
}

/** Specialize a base SocConfig for one design (Table 2). */
inline SocConfig
configFor(MmuDesign d, SocConfig cfg = {})
{
    switch (d) {
      case MmuDesign::kIdeal:
        cfg.percu_tlb_infinite = true;
        cfg.iommu.tlb_infinite = true;
        cfg.iommu.unlimited_bw = true;
        break;
      case MmuDesign::kBaseline512:
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 512;
        break;
      case MmuDesign::kBaseline16K:
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 16 * 1024;
        break;
      case MmuDesign::kBaselineLargeTlb:
        cfg.percu_tlb_entries = 128;
        cfg.iommu.tlb_entries = 16 * 1024;
        break;
      case MmuDesign::kVcNoOpt:
        cfg.iommu.tlb_entries = 512;
        cfg.fbt_as_second_level_tlb = false;
        break;
      case MmuDesign::kVcOpt:
        cfg.iommu.tlb_entries = 512;
        cfg.fbt_as_second_level_tlb = true;
        break;
      case MmuDesign::kL1Vc32:
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 16 * 1024;
        break;
      case MmuDesign::kL1Vc128:
        cfg.percu_tlb_entries = 128;
        cfg.iommu.tlb_entries = 16 * 1024;
        break;
      case MmuDesign::kBase2MB:
        // Baseline 512 sizes; the OS backs 2 MB-aligned interiors of
        // anonymous regions with 2 MB pages and the TLBs hold them at
        // full reach, so one entry spans up to 512 pages.
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 512;
        cfg.vm_page_policy = unsigned(Vm::PagePolicy::k2mInterior);
        cfg.tlb_max_reach = kMaxReachLog2;
        break;
      case MmuDesign::kBaseCoalesced:
        // Baseline 512 sizes and plain 4 KB pages; reach comes from
        // fill-time contiguity coalescing (up to one PTE line, free)
        // plus insertion-time buddy merging in the TLBs.
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 512;
        cfg.tlb_max_reach = kMaxReachLog2;
        cfg.tlb_merge_on_insert = true;
        cfg.coalesce_max_reach = 3;
        break;
      case MmuDesign::kBaseVictima:
        // Baseline 512 sizes; per-CU TLB capacity evictions stash
        // their translation in the L2 data array and misses probe the
        // stash before paying the PCIe hop to the IOMMU.
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 512;
        cfg.victima_stash = true;
        break;
    }
    return cfg;
}

/** Table 2, rendered. */
inline std::string
designTable()
{
    return "Design            | Per-CU TLB | IOMMU TLB        | B/W Limit\n"
           "------------------+------------+------------------+---------------\n"
           "IDEAL MMU         | Infinite   | Infinite         | Infinite\n"
           "Baseline 512      | 32-entry   | 512-entry        | 1 Access/Cycle\n"
           "Baseline 16K      | 32-entry   | 16K-entry        | 1 Access/Cycle\n"
           "VC W/O OPT        | -          | 512-entry        | 1 Access/Cycle\n"
           "VC With OPT       | -          | +16K-entry FBT   | 1 Access/Cycle\n"
           "Base 2MB          | 32, reach  | 512-entry, reach | 1 Access/Cycle\n"
           "Base Coalesced    | 32, reach  | 512-entry, reach | 1 Access/Cycle\n"
           "Base Victima      | 32 + L2 stash | 512-entry     | 1 Access/Cycle\n";
}

/** Owns whichever concrete system a design maps to. */
class SystemUnderTest
{
  public:
    SystemUnderTest(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                    Dram &dram, MmuDesign design)
        : design_(design)
    {
        switch (design) {
          case MmuDesign::kIdeal:
            ideal_ = std::make_unique<IdealMmuSystem>(ctx, cfg, vm, dram);
            break;
          case MmuDesign::kBaseline512:
          case MmuDesign::kBaseline16K:
          case MmuDesign::kBaselineLargeTlb:
          case MmuDesign::kBase2MB:
          case MmuDesign::kBaseCoalesced:
          case MmuDesign::kBaseVictima:
            baseline_ = std::make_unique<BaselineMmuSystem>(ctx, cfg, vm,
                                                            dram);
            break;
          case MmuDesign::kVcNoOpt:
          case MmuDesign::kVcOpt:
            vc_ = std::make_unique<VirtualCacheSystem>(ctx, cfg, vm,
                                                       dram);
            break;
          case MmuDesign::kL1Vc32:
          case MmuDesign::kL1Vc128:
            l1vc_ = std::make_unique<L1OnlyVcSystem>(ctx, cfg, vm, dram);
            break;
        }
    }

    MmuDesign design() const { return design_; }

    GpuMemInterface &
    memIf()
    {
        if (ideal_)
            return *ideal_;
        if (baseline_)
            return *baseline_;
        if (vc_)
            return *vc_;
        return *l1vc_;
    }

    /** The shared IOMMU, when the design has one. */
    Iommu *
    iommu()
    {
        if (baseline_)
            return &baseline_->iommu();
        if (vc_)
            return &vc_->iommu();
        if (l1vc_)
            return &l1vc_->iommu();
        return nullptr;
    }

    /**
     * Access, IOMMU and page-walk records not yet back in their pools;
     * zero whenever the event queue has drained.
     */
    std::size_t
    recordsInFlight()
    {
        std::size_t n = 0;
        if (ideal_)
            n += ideal_->requestsInFlight();
        if (baseline_)
            n += baseline_->requestsInFlight();
        if (vc_)
            n += vc_->requestsInFlight();
        if (l1vc_)
            n += l1vc_->requestsInFlight();
        if (Iommu *io = iommu())
            n += io->requestsInFlight() + io->ptw().walksInFlight();
        return n;
    }

    IdealMmuSystem *ideal() { return ideal_.get(); }
    BaselineMmuSystem *baseline() { return baseline_.get(); }
    VirtualCacheSystem *vc() { return vc_.get(); }
    L1OnlyVcSystem *l1vc() { return l1vc_.get(); }

    void
    flushLifetimes()
    {
        if (ideal_)
            ideal_->caches().flushLifetimes();
        if (baseline_)
            baseline_->caches().flushLifetimes();
        if (vc_)
            vc_->flushLifetimes();
        if (l1vc_)
            l1vc_->caches().flushLifetimes();
    }

    /**
     * Fold TLB entry reference-count histograms into @p percu (per-CU
     * TLBs, where the design has them) and @p iommu (the shared IOMMU
     * TLB).  Still-resident entries are flushed in first, so call once
     * at simulation end.
     */
    void
    collectTlbRefs(TlbRefHist &percu, TlbRefHist &iommu_hist)
    {
        if (baseline_)
            baseline_->collectTlbRefs(percu);
        if (l1vc_)
            l1vc_->collectTlbRefs(percu);
        if (Iommu *io = iommu()) {
            io->tlb().flushResidentRefs();
            iommu_hist.merge(io->tlb().refHist());
        }
    }

    /** Apply a kernel-boundary policy to whichever system is built. */
    void
    applyBoundary(const BoundaryPolicy &p)
    {
        if (ideal_)
            ideal_->applyBoundary(p);
        if (baseline_)
            baseline_->applyBoundary(p);
        if (vc_)
            vc_->applyBoundary(p);
        if (l1vc_)
            l1vc_->applyBoundary(p);
    }

    /** Register this system's statistics under dotted names. */
    void
    registerStats(StatRegistry &reg)
    {
        if (Iommu *io = iommu()) {
            reg.addScalar("iommu.accesses",
                          [io] { return double(io->accesses()); });
            reg.addScalar("iommu.walks",
                          [io] { return double(io->walks()); });
            reg.addScalar("iommu.faults",
                          [io] { return double(io->faults()); });
            reg.addScalar("iommu.serialization_cycles", [io] {
                return double(io->serializationDelay());
            });
            reg.addScalar("iommu.tlb.hits", [io] {
                return double(io->tlb().hits());
            });
            reg.addScalar("iommu.tlb.misses", [io] {
                return double(io->tlb().misses());
            });
            reg.addScalar("iommu.pwc.hit_ratio", [io] {
                return io->ptw().pwc().hitRatio();
            });
            reg.addScalar("iommu.ptw.mean_latency", [io] {
                return io->ptw().meanLatency();
            });
        }
        if (BaselineMmuSystem *b = baseline_.get()) {
            reg.addScalar("percu_tlb.accesses", [b] {
                return double(b->tlbAccesses());
            });
            reg.addScalar("percu_tlb.misses",
                          [b] { return double(b->tlbMisses()); });
            reg.addScalar("l2.hit_ratio", [b] {
                return b->caches().l2().hitRatio();
            });
            reg.addScalar("directory.probes", [b] {
                return double(b->caches().directory().probesSent());
            });
            // Reach/stash scalars appear only when the feature is on,
            // keeping classic designs' stat dumps byte-identical.
            if (b->config().tlb_max_reach > 0) {
                reg.addScalar("percu_tlb.reach_hits", [b] {
                    return double(b->tlbReachHits());
                });
                reg.addScalar("percu_tlb.reach_fills", [b] {
                    return double(b->tlbReachFills());
                });
                reg.addScalar("percu_tlb.merges", [b] {
                    return double(b->tlbMerges());
                });
            }
            if (b->config().percu_tlb_fill_policy != kTlbFillLru) {
                reg.addScalar("percu_tlb.fill_bypasses", [b] {
                    return double(b->tlbFillBypasses());
                });
            }
            if (b->config().percu_tlb_fill_policy ==
                kTlbFillBypassTrained) {
                reg.addScalar("percu_tlb.dead_first_evictions", [b] {
                    return double(b->tlbDeadFirstEvictions());
                });
                reg.addScalar("percu_tlb.pred_true_pos", [b] {
                    return double(b->tlbPredTruePos());
                });
                reg.addScalar("percu_tlb.pred_false_pos", [b] {
                    return double(b->tlbPredFalsePos());
                });
            }
            if (b->config().victima_stash) {
                reg.addScalar("victima.stashes", [b] {
                    return double(b->victimaStashes());
                });
                reg.addScalar("victima.probes", [b] {
                    return double(b->victimaProbes());
                });
                reg.addScalar("victima.hits", [b] {
                    return double(b->victimaHits());
                });
            }
        }
        if (VirtualCacheSystem *v = vc_.get()) {
            reg.addScalar("fbt.bt_lookups", [v] {
                return double(v->fbt().btLookups());
            });
            reg.addScalar("fbt.ft_hit_ratio",
                          [v] { return v->fbt().ftHitRatio(); });
            reg.addScalar("fbt.valid_pages", [v] {
                return double(v->fbt().validEntries());
            });
            reg.addScalar("fbt.capacity_evictions", [v] {
                return double(v->fbt().capacityEvictions());
            });
            reg.addScalar("vc.synonym_replays", [v] {
                return double(v->synonymReplays());
            });
            reg.addScalar("vc.rw_faults",
                          [v] { return double(v->rwFaults()); });
            reg.addScalar("vc.l1_flushes",
                          [v] { return double(v->l1Flushes()); });
            reg.addScalar("vc.translation_merges", [v] {
                return double(v->translationMerges());
            });
            reg.addScalar("vc.l2.hit_ratio",
                          [v] { return v->l2().hitRatio(); });
            reg.addScalar("directory.probes", [v] {
                return double(v->directory().probesSent());
            });
            reg.addScalar("vc.probe_lines_filtered", [v] {
                return double(v->probeLinesFiltered());
            });
        }
        if (L1OnlyVcSystem *l = l1vc_.get()) {
            reg.addScalar("l1vc.synonym_replays", [l] {
                return double(l->synonymReplays());
            });
            reg.addScalar("l1vc.registry_lines", [l] {
                return double(l->registry().size());
            });
        }
    }

  private:
    MmuDesign design_;
    std::unique_ptr<IdealMmuSystem> ideal_;
    std::unique_ptr<BaselineMmuSystem> baseline_;
    std::unique_ptr<VirtualCacheSystem> vc_;
    std::unique_ptr<L1OnlyVcSystem> l1vc_;
};

} // namespace gvc

#endif // GVC_MMU_DESIGNS_HH
