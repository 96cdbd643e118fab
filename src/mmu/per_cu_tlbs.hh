/**
 * @file
 * The per-CU TLB bank of the translation stage (mmu/cu_translation.hh)
 * that the baseline and L1-only VC hierarchies share: one Tlb per CU,
 * built from SocConfig, with counter sums across CUs.  The stage's Vm
 * listeners and boundary fan shootdowns out to every TLB.
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
    unsigned size() const { return unsigned(tlbs_.size()); }

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
