/**
 * @file
 * Warp-level instruction records emitted by workload kernels.
 *
 * Workloads are expressed as per-warp instruction streams at the
 * granularity that matters for the memory system: compute delays, global
 * memory scatter/gather with per-lane virtual addresses, scratchpad
 * traffic (which bypasses translation entirely), and barriers.
 */

#ifndef GVC_GPU_WARP_INST_HH
#define GVC_GPU_WARP_INST_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace gvc
{

/** Number of SIMD lanes per compute unit (Table 1: 32). */
inline constexpr unsigned kWarpLanes = 32;

/** Kinds of warp instructions the timing model distinguishes. */
enum class WarpOp : std::uint8_t {
    kCompute,    ///< Occupy the warp for N cycles, no memory traffic.
    kLoad,       ///< Global-memory gather: per-lane virtual addresses.
    kStore,      ///< Global-memory scatter: per-lane virtual addresses.
    kScratchLoad,  ///< Scratchpad read: no TLB, no caches.
    kScratchStore, ///< Scratchpad write: no TLB, no caches.
    kBarrier,    ///< Wait for all resident warps of the CU.
};

/** One warp instruction. */
struct WarpInst
{
    WarpOp op = WarpOp::kCompute;
    /** Compute latency for kCompute. */
    std::uint32_t cycles = 1;
    /** Active-lane virtual addresses for loads/stores (<= kWarpLanes). */
    std::vector<Vaddr> lane_addrs;

    static WarpInst
    compute(std::uint32_t cycles)
    {
        WarpInst w;
        w.op = WarpOp::kCompute;
        w.cycles = cycles;
        return w;
    }

    static WarpInst
    load(std::vector<Vaddr> addrs)
    {
        WarpInst w;
        w.op = WarpOp::kLoad;
        w.lane_addrs = std::move(addrs);
        return w;
    }

    static WarpInst
    store(std::vector<Vaddr> addrs)
    {
        WarpInst w;
        w.op = WarpOp::kStore;
        w.lane_addrs = std::move(addrs);
        return w;
    }

    static WarpInst
    scratch(bool is_store, unsigned lanes = kWarpLanes)
    {
        WarpInst w;
        w.op = is_store ? WarpOp::kScratchStore : WarpOp::kScratchLoad;
        w.cycles = lanes;
        return w;
    }

    static WarpInst
    barrier()
    {
        WarpInst w;
        w.op = WarpOp::kBarrier;
        return w;
    }

    bool
    isGlobalMem() const
    {
        return op == WarpOp::kLoad || op == WarpOp::kStore;
    }
};

/**
 * A lazily-generated stream of warp instructions.  Kernels implement this
 * so traces never need to be fully materialized.
 */
class WarpStream
{
  public:
    virtual ~WarpStream() = default;

    /**
     * The next instruction, or nullptr at the end of the stream (and on
     * every call after it).  The pointee belongs to the stream and stays
     * valid until the next call, so a caller consumes it in place
     * instead of copying its lane addresses.
     */
    virtual const WarpInst *next() = 0;
};

/**
 * A WarpStream over a pre-built instruction vector, read in place.  The
 * vector is shared: trace replay hands in an aliasing pointer to one
 * recorded warp that keeps the whole trace alive, so every launch of a
 * kernel reads the one copy the trace holds.
 */
class VectorWarpStream final : public WarpStream
{
  public:
    using Insts = std::shared_ptr<const std::vector<WarpInst>>;

    explicit VectorWarpStream(std::vector<WarpInst> insts)
        : VectorWarpStream(std::make_shared<const std::vector<WarpInst>>(
              std::move(insts)))
    {
    }

    explicit VectorWarpStream(Insts insts)
        : insts_(std::move(insts)), cur_(insts_->data()),
          end_(cur_ + insts_->size())
    {
    }

    const WarpInst *
    next() override
    {
        return cur_ != end_ ? cur_++ : nullptr;
    }

  private:
    Insts insts_;
    const WarpInst *cur_;
    const WarpInst *end_;
};

} // namespace gvc

#endif // GVC_GPU_WARP_INST_HH
