/**
 * @file
 * DRAM model: a fixed access latency plus a shared bandwidth-limited
 * channel (Table 1: 192 GB/s at a 700 MHz GPU clock ≈ 274 bytes/cycle).
 * Service order is FCFS; queueing emerges naturally from the channel
 * occupancy, which is tracked in 1/1024-cycle fixed point so fractional
 * per-line service times accumulate exactly.
 */

#ifndef GVC_MEM_DRAM_HH
#define GVC_MEM_DRAM_HH

#include <cstdint>

#include "sim/callback.hh"
#include "sim/sim_context.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/** Bandwidth-limited, fixed-latency memory device. */
class Dram
{
  public:
    struct Params
    {
        Tick access_latency = 120;    ///< Row access + controller, cycles.
        double bytes_per_cycle = 274; ///< Channel bandwidth.
    };

    Dram(SimContext &ctx, const Params &params)
        : ctx_(ctx), latency_(params.access_latency)
    {
        service_fp_per_byte_ =
            std::uint64_t(double(kFpScale) / params.bytes_per_cycle);
        if (service_fp_per_byte_ == 0)
            service_fp_per_byte_ = 1;
    }

    /**
     * Issue an access moving @p bytes across the channel; @p done runs
     * when the data has been delivered.
     */
    void
    access(std::uint64_t bytes, Callback done)
    {
        ++accesses_;
        bytes_moved_ += bytes;
        const std::uint64_t now_fp = ctx_.now() * kFpScale;
        const std::uint64_t start_fp =
            next_free_fp_ > now_fp ? next_free_fp_ : now_fp;
        queue_delay_ += (start_fp - now_fp) / kFpScale;
        const std::uint64_t service_fp = bytes * service_fp_per_byte_;
        next_free_fp_ = start_fp + service_fp;
        const Tick finish =
            (next_free_fp_ + kFpScale - 1) / kFpScale + latency_;
        ctx_.eq.schedule(finish, std::move(done));
    }

    std::uint64_t accesses() const { return accesses_.value; }

    void
    stats(StatSink &s) const
    {
        s("accesses", accesses_);
        s("bytes", bytes_moved_);
        s("queue_delay", queue_delay_);
    }

  private:
    static constexpr std::uint64_t kFpScale = 1024;

    SimContext &ctx_;
    Tick latency_;
    std::uint64_t service_fp_per_byte_ = 0;
    std::uint64_t next_free_fp_ = 0;
    Counter accesses_;
    Counter bytes_moved_;
    Counter queue_delay_; ///< Cycles accesses waited for the channel.
};

} // namespace gvc

#endif // GVC_MEM_DRAM_HH
