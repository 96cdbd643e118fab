/**
 * @file
 * GPU device: owns the compute units and dispatches kernels.  A kernel
 * launch is a set of warp streams in one address space; streams are
 * assigned to CUs round-robin and the launch completes when every CU
 * drains.
 */

#ifndef GVC_GPU_GPU_HH
#define GVC_GPU_GPU_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpu/cu.hh"
#include "sim/sim_context.hh"
#include "sim/stats.hh"

namespace gvc
{

/** A kernel launch: warp streams plus the launching address space. */
struct KernelLaunch
{
    Asid asid = 0;
    std::vector<std::unique_ptr<WarpStream>> warps;
};

/** The GPU device. */
class Gpu
{
  public:
    Gpu(SimContext &ctx, const GpuParams &params, GpuMemInterface &mem)
        : ctx_(ctx), params_(params)
    {
        cus_.reserve(params.num_cus);
        for (unsigned i = 0; i < params.num_cus; ++i)
            cus_.push_back(
                std::make_unique<ComputeUnit>(ctx, i, params, mem));
    }

    /**
     * Launch @p kernel; @p on_done fires when every warp has retired.
     * Only one kernel may be in flight at a time (the harness serializes
     * launches, matching the paper's one-kernel-at-a-time workloads).
     */
    void
    launch(KernelLaunch kernel, std::function<void()> on_done)
    {
        if (cus_running_ != 0)
            fatal("Gpu::launch: a kernel is already running");
        ++kernels_launched_;
        if (kernel.warps.empty()) {
            // A zero-warp kernel has nothing to execute; complete it
            // synchronously instead of spinning the CUs through their
            // wake/drain machinery (which would also advance the clock).
            if (on_done)
                on_done();
            return;
        }
        on_kernel_done_ = std::move(on_done);
        for (std::size_t i = 0; i < kernel.warps.size(); ++i) {
            cus_[i % cus_.size()]->enqueueWarp(
                kernel.asid, std::move(kernel.warps[i]));
        }
        cus_running_ = unsigned(cus_.size());
        for (auto &cu : cus_) {
            cu->start([this] {
                if (--cus_running_ == 0 && on_kernel_done_)
                    on_kernel_done_();
            });
        }
    }

    /**
     * Scenario kernel boundary: rebase every CU's issue machinery on the
     * current time so the next launch schedules shift-invariantly (see
     * ComputeUnit::resetIssueState).  The harness calls this between
     * scenario rounds, never between the launches a single workload
     * emits itself.
     */
    void
    resetIssueState()
    {
        if (cus_running_ != 0)
            fatal("Gpu::resetIssueState: a kernel is still running");
        for (auto &cu : cus_)
            cu->resetIssueState();
    }

    unsigned numCus() const { return unsigned(cus_.size()); }
    ComputeUnit &cu(unsigned i) { return *cus_[i]; }
    const ComputeUnit &cu(unsigned i) const { return *cus_[i]; }
    std::uint64_t kernelsLaunched() const { return kernels_launched_.value; }

    /** Every CU lists the same paths, so they read summed. */
    void
    stats(StatSink &s) const
    {
        for (const auto &cu : cus_)
            cu->stats(s);
    }

  private:
    SimContext &ctx_;
    GpuParams params_;
    std::vector<std::unique_ptr<ComputeUnit>> cus_;
    unsigned cus_running_ = 0;
    std::function<void()> on_kernel_done_;
    Counter kernels_launched_;
};

} // namespace gvc

#endif // GVC_GPU_GPU_HH
