/**
 * @file
 * Per-CU NoC injection ports for the dance-hall topology (Table 1):
 * when enabled, each CU injects line requests into the network at a
 * bounded rate, so a fully divergent memory instruction's 32 requests
 * spread over time instead of appearing simultaneously.
 */

#ifndef GVC_MMU_INJECTION_HH
#define GVC_MMU_INJECTION_HH

#include <utility>
#include <vector>

#include "cache/bank_port.hh"
#include "sim/callback.hh"
#include "sim/sim_context.hh"

namespace gvc
{

/** One injection port per CU; pass rate 0 to disable (zero cost). */
class CuInjectionPorts
{
  public:
    CuInjectionPorts(SimContext &ctx, unsigned num_cus, double rate)
        : ctx_(ctx)
    {
        if (rate <= 0.0)
            return;
        ports_.reserve(num_cus);
        for (unsigned i = 0; i < num_cus; ++i)
            ports_.emplace_back(rate);
    }

    bool enabled() const { return !ports_.empty(); }

    /**
     * Run @p fn when CU @p cu wins its injection slot (immediately when
     * the limit is disabled).
     */
    template <typename F>
    void
    inject(unsigned cu, F &&fn)
    {
        if (ports_.empty()) {
            fn();
            return;
        }
        const Tick start = ports_[cu].acquire(ctx_.now());
        if (start == ctx_.now())
            fn();
        else
            ctx_.eq.schedule(start, std::forward<F>(fn));
    }

    /** Mean cycles requests waited at CU ports (0 when disabled). */
    double
    meanWait() const
    {
        double wait = 0.0;
        std::uint64_t n = 0;
        for (const auto &p : ports_) {
            wait += p.meanWait() * double(p.accesses());
            n += p.accesses();
        }
        return n ? wait / double(n) : 0.0;
    }

  private:
    SimContext &ctx_;
    std::vector<BankPort> ports_;
};

} // namespace gvc

#endif // GVC_MMU_INJECTION_HH
