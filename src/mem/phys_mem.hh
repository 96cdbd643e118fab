/**
 * @file
 * Physical memory frame allocator.
 *
 * The simulator is trace-functional: no data bytes are stored, but frame
 * allocation is real so that page tables, synonym mappings, and the FBT's
 * reverse translations operate on genuine physical addresses.
 */

#ifndef GVC_MEM_PHYS_MEM_HH
#define GVC_MEM_PHYS_MEM_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/**
 * A bump-plus-freelist allocator over a fixed number of 4 KB frames.
 * Frame 0 is reserved so that a PPN of zero never appears as a valid
 * translation (it doubles as a null check in debug builds).
 */
class PhysMem
{
  public:
    /** @param total_bytes  Size of simulated physical memory. */
    explicit PhysMem(std::uint64_t total_bytes)
        : total_frames_(total_bytes >> kPageShift), next_frame_(1)
    {
        if (total_frames_ < 2)
            fatal("PhysMem: physical memory must hold at least 2 frames");
    }

    /** Allocate one frame; fatal on exhaustion (user sized memory). */
    Ppn
    allocFrame()
    {
        ++alloc_count_;
        if (!free_list_.empty()) {
            const Ppn f = free_list_.back();
            free_list_.pop_back();
            return f;
        }
        if (next_frame_ >= total_frames_)
            fatal("PhysMem: out of physical memory");
        return next_frame_++;
    }

    /**
     * Allocate @p count physically contiguous frames (used for 2 MB
     * pages).  Contiguity only matters for address arithmetic, so a bump
     * allocation suffices.
     */
    Ppn
    allocContiguous(std::uint64_t count)
    {
        if (next_frame_ + count > total_frames_)
            fatal("PhysMem: out of physical memory (contiguous)");
        const Ppn base = next_frame_;
        next_frame_ += count;
        alloc_count_ += count;
        return base;
    }

    void
    freeFrame(Ppn frame)
    {
        if (frame == 0 || frame >= next_frame_)
            panic("PhysMem: freeing invalid frame");
        ++free_count_;
        free_list_.push_back(frame);
    }

    std::uint64_t
    framesInUse() const
    {
        return (next_frame_ - 1) - free_list_.size();
    }

    std::uint64_t allocations() const { return alloc_count_.value; }

  private:
    std::uint64_t total_frames_;
    Ppn next_frame_;
    std::vector<Ppn> free_list_;
    Counter alloc_count_;
    Counter free_count_;
};

} // namespace gvc

#endif // GVC_MEM_PHYS_MEM_HH
