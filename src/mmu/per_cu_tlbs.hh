/**
 * @file
 * The per-CU TLB bank shared by the baseline and L1-only VC hierarchies:
 * one Tlb per CU, built from SocConfig, with shootdown fan-out and
 * counter sums across CUs.  It registers no shootdown listeners of its
 * own; each owning system calls into it from its listeners.
 */

#ifndef GVC_MMU_PER_CU_TLBS_HH
#define GVC_MMU_PER_CU_TLBS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mmu/soc_config.hh"
#include "tlb/tlb.hh"

namespace gvc
{

/** One private TLB per CU. */
class PerCuTlbs
{
  public:
    explicit PerCuTlbs(const SocConfig &cfg)
    {
        tlbs_.reserve(cfg.gpu.num_cus);
        for (unsigned i = 0; i < cfg.gpu.num_cus; ++i) {
            tlbs_.push_back(std::make_unique<Tlb>(
                TlbParams{cfg.percu_tlb_entries, cfg.percu_tlb_assoc,
                          cfg.percu_tlb_infinite, cfg.track_lifetimes,
                          cfg.translation_memo, cfg.tlb_max_reach,
                          cfg.tlb_merge_on_insert,
                          cfg.percu_tlb_fill_policy,
                          cfg.tlb_replacement}));
        }
    }

    Tlb &operator[](unsigned cu) { return *tlbs_[cu]; }
    const Tlb &operator[](unsigned cu) const { return *tlbs_[cu]; }
    unsigned size() const { return unsigned(tlbs_.size()); }

    void
    invalidatePage(Asid asid, Vpn vpn, Tick now)
    {
        for (auto &tlb : tlbs_)
            tlb->invalidatePage(asid, vpn, now);
    }

    void
    invalidateAsid(Asid asid, Tick now)
    {
        for (auto &tlb : tlbs_)
            tlb->invalidateAsid(asid, now);
    }

    void
    invalidateAll(Tick now)
    {
        for (auto &tlb : tlbs_)
            tlb->invalidateAll(now);
    }

    /**
     * Fold every TLB's entry reference counts into @p out, flushing
     * still-resident entries first (simulation end).
     */
    void
    collectRefs(TlbRefHist &out)
    {
        for (auto &tlb : tlbs_) {
            tlb->flushResidentRefs();
            out.merge(tlb->refHist());
        }
    }

    /** Every CU's TLB lists the same paths, so they read summed. */
    void
    stats(StatSink &s) const
    {
        for (const auto &tlb : tlbs_)
            tlb->stats(s);
    }

  private:
    std::vector<std::unique_ptr<Tlb>> tlbs_;
};

} // namespace gvc

#endif // GVC_MMU_PER_CU_TLBS_HH
