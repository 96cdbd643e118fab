/**
 * @file
 * Set (or bank) selection for set-associative structures.
 *
 * Every array in the simulator picks a set as key mod number-of-sets.
 * Almost every configured count is a power of two, where the remainder
 * is a mask; the division stays as the fallback for the few that are
 * not (a 48-entry 4-way TLB has 12 sets).  Both branches give exactly
 * key % n, so no simulated number depends on which one ran.
 */

#ifndef GVC_SIM_SET_INDEX_HH
#define GVC_SIM_SET_INDEX_HH

#include <cstddef>
#include <cstdint>

namespace gvc
{

/** key % n, as a mask when n is a power of two. */
class SetIndex
{
  public:
    SetIndex() = default;

    /** @param n number of sets; 0 is treated as 1. */
    explicit SetIndex(std::uint64_t n)
        : n_(n ? n : 1), pow2_((n_ & (n_ - 1)) == 0)
    {
    }

    std::size_t
    operator()(std::uint64_t key) const
    {
        return std::size_t(pow2_ ? key & (n_ - 1) : key % n_);
    }

    std::uint64_t size() const { return n_; }
    bool isPowerOfTwo() const { return pow2_; }

  private:
    std::uint64_t n_ = 1;
    bool pow2_ = true;
};

} // namespace gvc

#endif // GVC_SIM_SET_INDEX_HH
