/**
 * @file
 * Memory coalescer: reduces a warp's per-lane addresses to the minimum
 * set of 128 B line requests, preserving first-touch order.  The lines
 * emitted per memory instruction drive the paper's analysis of
 * scatter/gather pressure.
 */

#ifndef GVC_GPU_COALESCER_HH
#define GVC_GPU_COALESCER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gpu/warp_inst.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/** Stateless coalescing plus running line and instruction counts. */
class Coalescer
{
  public:
    /**
     * Coalesce the batch of @p n lane addresses at @p lane_addrs into
     * unique line-aligned addresses, first occurrence first, and count
     * the instruction and its lines.
     *
     * The returned reference aliases internal scratch storage: it stays
     * valid only until the next coalesce() call and must not be retained
     * across one.
     */
    const std::vector<Vaddr> &
    coalesce(const Vaddr *lane_addrs, std::size_t n)
    {
        scratch_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const Vaddr line = lineAlign(lane_addrs[i]);
            // Adjacent lanes usually touch the same line; checking the
            // most recent emission first short-circuits the common case.
            if (!scratch_.empty() && scratch_.back() == line)
                continue;
            if (std::find(scratch_.begin(), scratch_.end(), line) ==
                scratch_.end()) {
                scratch_.push_back(line);
            }
        }
        ++instructions_;
        lines_ += scratch_.size();
        return scratch_;
    }

    /** Overload for callers holding a vector. */
    const std::vector<Vaddr> &
    coalesce(const std::vector<Vaddr> &lane_addrs)
    {
        return coalesce(lane_addrs.data(), lane_addrs.size());
    }

    std::uint64_t instructions() const { return instructions_.value; }
    /** Distinct lines over all instructions; divided by instructions()
     *  it is the mean divergence (paper: fw ≈ 9.3 lines). */
    std::uint64_t linesEmitted() const { return lines_.value; }

  private:
    std::vector<Vaddr> scratch_;
    Counter instructions_;
    Counter lines_;
};

} // namespace gvc

#endif // GVC_GPU_COALESCER_HH
