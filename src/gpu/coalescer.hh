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
#include <iterator>
#include <vector>

#include "gpu/warp_inst.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/** Coalescing plus running line and instruction counts. */
class Coalescer
{
  public:
    Coalescer() { scratch_.reserve(kWarpLanes); }

    /**
     * Coalesce a warp's lane addresses (at most kWarpLanes) into unique
     * line-aligned addresses, first occurrence first, and count the
     * instruction and its lines.
     *
     * The returned reference aliases internal scratch storage: it stays
     * valid only until the next coalesce() call and must not be retained
     * across one.
     */
    const std::vector<Vaddr> &
    coalesce(const std::vector<Vaddr> &lane_addrs)
    {
        return dedupe(lane_addrs);
    }

    /** Packed lanes: decoded and deduplicated in one pass. */
    const std::vector<Vaddr> &
    coalesce(const LaneView &lane_addrs)
    {
        return dedupe(lane_addrs);
    }

    std::uint64_t instructions() const { return instructions_.value; }
    /** Distinct lines over all instructions; divided by instructions()
     *  it is the mean divergence (paper: fw ≈ 9.3 lines). */
    std::uint64_t linesEmitted() const { return lines_.value; }

  private:
    /** Seen-line table slots: twice a warp's lanes keeps probes short
     *  and always leaves a free slot. */
    static constexpr unsigned kSlots = 2 * kWarpLanes;

    static unsigned
    slotOf(Vaddr line)
    {
        return unsigned(((line >> kLineShift) * 0x9e3779b97f4a7c15ull) >>
                        58);
    }

    template <typename Lanes>
    const std::vector<Vaddr> &
    dedupe(const Lanes &lanes)
    {
        panicIfNot(lanes.size() <= kWarpLanes,
                   "Coalescer: more lane addresses than warp lanes");
        static_assert(kSlots == 64, "slotOf() yields a 6-bit slot");
        scratch_.clear();
        // A slot holds a line of this call when its stamp is gen_, so
        // the table empties by counting up; clear it when that wraps.
        if (++gen_ == 0) {
            std::fill(std::begin(stamps_), std::end(stamps_), 0u);
            gen_ = 1;
        }
        for (const Vaddr va : lanes) {
            const Vaddr line = lineAlign(va);
            // Adjacent lanes usually touch the same line; checking the
            // most recent emission first short-circuits the common case.
            if (!scratch_.empty() && scratch_.back() == line)
                continue;
            unsigned s = slotOf(line);
            while (stamps_[s] == gen_ && seen_[s] != line)
                s = (s + 1) % kSlots;
            if (stamps_[s] != gen_) {
                stamps_[s] = gen_;
                seen_[s] = line;
                scratch_.push_back(line);
            }
        }
        ++instructions_;
        lines_ += scratch_.size();
        return scratch_;
    }

    std::vector<Vaddr> scratch_;
    Vaddr seen_[kSlots];
    std::uint32_t stamps_[kSlots] = {};
    std::uint32_t gen_ = 0;
    Counter instructions_;
    Counter lines_;
};

} // namespace gvc

#endif // GVC_GPU_COALESCER_HH
