/**
 * @file
 * Helpers for constructing kernel launches: per-warp instruction
 * accumulation and chunked distribution of data-parallel index ranges,
 * mirroring how a grid of thread blocks maps onto warps.
 */

#ifndef GVC_WORKLOADS_KERNEL_BUILDER_HH
#define GVC_WORKLOADS_KERNEL_BUILDER_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/gpu.hh"
#include "workloads/workload.hh"

namespace gvc
{

/** Accumulates per-warp instructions and emits a KernelLaunch. */
class KernelBuilder
{
  public:
    KernelBuilder(Asid asid, unsigned num_warps)
        : asid_(asid), warps_(num_warps)
    {
    }

    unsigned numWarps() const { return unsigned(warps_.size()); }

    /** Append a load of the lane addresses @p addrs to warp @p w. */
    void
    load(unsigned w, const std::vector<Vaddr> &addrs)
    {
        warps_[w].load(addrs);
    }

    /** Append a store to the lane addresses @p addrs to warp @p w. */
    void
    store(unsigned w, const std::vector<Vaddr> &addrs)
    {
        warps_[w].store(addrs);
    }

    /** Append a coalesced load of @p lanes consecutive elements. */
    void
    loadSeq(unsigned w, const DevArray &arr, std::uint64_t first,
            unsigned lanes)
    {
        seq(w, WarpOp::kLoad, arr, first, lanes);
    }

    /** Append a coalesced store of @p lanes consecutive elements. */
    void
    storeSeq(unsigned w, const DevArray &arr, std::uint64_t first,
             unsigned lanes)
    {
        seq(w, WarpOp::kStore, arr, first, lanes);
    }

    /** Append a gather load of @p arr at the given indices. */
    void
    loadGather(unsigned w, const DevArray &arr,
               const std::vector<std::uint32_t> &idx)
    {
        gather(w, WarpOp::kLoad, arr, idx);
    }

    /** Append a scatter store of @p arr at the given indices. */
    void
    storeScatter(unsigned w, const DevArray &arr,
                 const std::vector<std::uint32_t> &idx)
    {
        gather(w, WarpOp::kStore, arr, idx);
    }

    void compute(unsigned w, std::uint32_t cycles)
    {
        warps_[w].add(WarpInst::compute(cycles));
    }

    void scratch(unsigned w, bool is_store)
    {
        warps_[w].add(WarpInst::scratch(is_store));
    }

    void barrier(unsigned w) { warps_[w].add(WarpInst::barrier()); }

    /** Barrier on every warp (tiled kernels). */
    void
    barrierAll()
    {
        for (unsigned w = 0; w < warps_.size(); ++w)
            barrier(w);
    }

    /** Total instructions accumulated so far. */
    std::uint64_t
    totalInstructions() const
    {
        std::uint64_t n = 0;
        for (const auto &w : warps_)
            n += w.size();
        return n;
    }

    /**
     * Finish the accumulated streams into a launch (builder is spent),
     * each warp in one exactly sized block, freeing its builder as it
     * goes.
     */
    KernelLaunch
    take()
    {
        KernelLaunch launch;
        launch.asid = asid_;
        launch.warps.reserve(warps_.size());
        for (WarpBuilder &warp : warps_) {
            if (!warp.empty())
                launch.warps.push_back(
                    std::make_unique<VectorWarpStream>(warp.finish()));
            warp = WarpBuilder();
        }
        warps_.clear();
        return launch;
    }

  private:
    void
    seq(unsigned w, WarpOp op, const DevArray &arr, std::uint64_t first,
        unsigned lanes)
    {
        warps_[w].mem(op, lanes,
                      [&](std::size_t l) { return arr.at(first + l); });
    }

    void
    gather(unsigned w, WarpOp op, const DevArray &arr,
           const std::vector<std::uint32_t> &idx)
    {
        if (!idx.empty())
            warps_[w].mem(op, idx.size(),
                          [&](std::size_t l) { return arr.at(idx[l]); });
    }

    Asid asid_;
    std::vector<WarpBuilder> warps_;
};

/**
 * Distribute [0, n) over warps in contiguous chunks of up to
 * kWarpLanes elements, round-robin like thread blocks.
 * @p fn is called as fn(warp, first_index, lane_count).
 */
template <typename Fn>
void
forEachWarpChunk(std::uint64_t n, unsigned num_warps, Fn fn)
{
    std::uint64_t chunk = 0;
    for (std::uint64_t base = 0; base < n; base += kWarpLanes, ++chunk) {
        const unsigned lanes =
            unsigned(std::min<std::uint64_t>(kWarpLanes, n - base));
        fn(unsigned(chunk % num_warps), base, lanes);
    }
}

/**
 * Like forEachWarpChunk, but hands each warp @p block_chunks consecutive
 * chunks before moving on — the CUDA-style block-contiguous mapping that
 * preserves streaming page locality within a warp (used by the regular
 * Rodinia kernels).
 */
template <typename Fn>
void
forEachWarpChunkBlocked(std::uint64_t n, unsigned num_warps,
                        unsigned block_chunks, Fn fn)
{
    std::uint64_t chunk = 0;
    for (std::uint64_t base = 0; base < n; base += kWarpLanes, ++chunk) {
        const unsigned lanes =
            unsigned(std::min<std::uint64_t>(kWarpLanes, n - base));
        fn(unsigned((chunk / block_chunks) % num_warps), base, lanes);
    }
}

} // namespace gvc

#endif // GVC_WORKLOADS_KERNEL_BUILDER_HH
