/**
 * @file
 * Test helper: an Iommu with a stand-in owner.  The client keeps the
 * request records the IOMMU works on and records every answer with the
 * tick it arrived at.
 */

#ifndef GVC_TESTS_IOMMU_CLIENT_HH
#define GVC_TESTS_IOMMU_CLIENT_HH

#include <vector>

#include "mmu/iommu.hh"

namespace gvc::test
{

/** One answer of the IOMMU and the tick it ran at. */
struct IommuAnswer
{
    IommuResponse resp;
    Tick at = 0;
};

class IommuClient
{
  public:
    IommuClient(SimContext &ctx, Vm &vm, Dram &dram,
                const IommuParams &params = {})
        : ctx_(ctx), iommu_(ctx, vm, dram, params, [this](MemRequest *r) {
              answers.push_back({r->resp, ctx_.now()});
              reqs_.finish(r);
          })
    {
    }

    /** Ask for (asid, vpn); it reaches the IOMMU at the current tick. */
    void
    translate(Asid asid, Vpn vpn)
    {
        iommu_.translateIn(0, reqs_.make(0, asid, pageBase(vpn), false,
                                         [] {}));
    }

    /** translate() and drain the queue: the answer, or {} if none. */
    IommuResponse
    translateNow(Asid asid, Vpn vpn)
    {
        const std::size_t before = answers.size();
        translate(asid, vpn);
        ctx_.eq.run();
        return answers.size() > before ? answers.back().resp
                                       : IommuResponse{};
    }

    Iommu &iommu() { return iommu_; }

    /** Every answer so far, in arrival order. */
    std::vector<IommuAnswer> answers;

  private:
    SimContext &ctx_;
    RequestPool reqs_;
    Iommu iommu_;
};

} // namespace gvc::test

#endif // GVC_TESTS_IOMMU_CLIENT_HH
