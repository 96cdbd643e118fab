/**
 * @file
 * Warp-level instruction records emitted by workload kernels.
 *
 * Workloads are expressed as per-warp instruction streams at the
 * granularity that matters for the memory system: compute delays, global
 * memory scatter/gather with per-lane virtual addresses, scratchpad
 * traffic (which bypasses translation entirely), and barriers.  The
 * lanes of a warp's loads and stores stay packed, in the `.gvct`
 * encoding, in one byte arena per warp.
 */

#ifndef GVC_GPU_WARP_INST_HH
#define GVC_GPU_WARP_INST_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "sim/logging.hh"
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

// --- lane codec ---------------------------------------------------------
//
// A memory instruction's lanes are kept packed exactly as a `.gvct`
// body stores them: a LEB128 varint first address, then the zigzag
// varint of each lane's delta from the lane before it.  Lanes are
// mostly small strides, so a lane takes 1-2 bytes instead of 8.

/** Longest LEB128 encoding of a 64-bit value. */
inline constexpr std::size_t kMaxVarintBytes = 10;

/** Most bytes one instruction's packed lanes take. */
inline constexpr std::size_t kMaxLaneBytes = kWarpLanes * kMaxVarintBytes;

/** Write @p v as a LEB128 varint at @p p; returns the byte after it. */
inline std::uint8_t *
putVarint(std::uint8_t *p, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        *p++ = std::uint8_t(v) | 0x80;
    *p++ = std::uint8_t(v);
    return p;
}

/** Read a varint known to be well formed at @p p, and step past it. */
inline std::uint64_t
getVarint(const std::uint8_t *&p)
{
    std::uint64_t v = *p & 0x7f;
    for (unsigned shift = 7; *p++ & 0x80; shift += 7)
        v |= std::uint64_t(*p & 0x7f) << shift;
    return v;
}

inline std::uint64_t
zigzag(std::int64_t v)
{
    return (std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return std::int64_t(v >> 1) ^ -std::int64_t(v & 1);
}

/**
 * Pack the @p n <= kWarpLanes addresses at @p addrs into @p out, which
 * has room for kMaxLaneBytes.  @return the bytes written.
 */
inline std::size_t
packLanes(const Vaddr *addrs, std::size_t n, std::uint8_t *out)
{
    std::uint8_t *p = out;
    for (std::size_t i = 0; i < n; ++i)
        p = putVarint(p, i == 0 ? addrs[0]
                                : zigzag(std::int64_t(addrs[i] -
                                                      addrs[i - 1])));
    return std::size_t(p - out);
}

/**
 * One instruction's lane addresses, packed by the lane codec.  It views
 * bytes owned elsewhere (the arena of the WarpInsts holding the
 * instruction); iterating decodes the addresses in lane order.  Packing
 * is canonical, so two views hold the same lanes exactly when they hold
 * the same bytes.
 */
class LaneView
{
  public:
    /** Decodes one lane per step. */
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = Vaddr;
        using difference_type = std::ptrdiff_t;
        using pointer = const Vaddr *;
        using reference = Vaddr;

        iterator() = default;

        iterator(const std::uint8_t *p, unsigned lanes)
            : p_(p), left_(lanes)
        {
            if (left_)
                va_ = getVarint(p_);
        }

        Vaddr operator*() const { return va_; }

        iterator &
        operator++()
        {
            if (--left_)
                va_ += Vaddr(unzigzag(getVarint(p_)));
            return *this;
        }

        iterator
        operator++(int)
        {
            iterator was = *this;
            ++*this;
            return was;
        }

        /** Iterators over one view are equal when as many lanes remain. */
        bool operator==(const iterator &o) const { return left_ == o.left_; }

      private:
        const std::uint8_t *p_ = nullptr;
        Vaddr va_ = 0;
        unsigned left_ = 0;
    };
    using const_iterator = iterator;

    LaneView() = default;

    /** @p size packed bytes at @p bytes holding @p lanes lanes. */
    LaneView(const std::uint8_t *bytes, std::size_t lanes, std::size_t size)
        : bytes_(bytes), size_(std::uint16_t(size)),
          lanes_(std::uint8_t(lanes))
    {
    }

    std::size_t size() const { return lanes_; }
    bool empty() const { return lanes_ == 0; }
    const std::uint8_t *bytes() const { return bytes_; }
    std::size_t byteSize() const { return size_; }

    iterator begin() const { return iterator(bytes_, lanes_); }
    iterator end() const { return iterator(); }

    friend bool
    operator==(const LaneView &a, const LaneView &b)
    {
        return a.lanes_ == b.lanes_ && a.size_ == b.size_ &&
               (a.size_ == 0 ||
                std::memcmp(a.bytes_, b.bytes_, a.size_) == 0);
    }

  private:
    const std::uint8_t *bytes_ = nullptr;
    std::uint16_t size_ = 0;
    std::uint8_t lanes_ = 0;
};

static_assert(kMaxLaneBytes <= 0xffff && kWarpLanes <= 0xff,
              "LaneView's byte and lane counts must hold a full warp");

/**
 * One warp instruction.  A load or store's lanes live in the arena of
 * the WarpInsts that holds it, so instructions are built through
 * WarpInsts::load/store; the factories here make lane-free ones.
 */
struct WarpInst
{
    WarpOp op = WarpOp::kCompute;
    /** Compute latency for kCompute. */
    std::uint32_t cycles = 1;
    /** Active-lane virtual addresses for loads/stores (<= kWarpLanes). */
    LaneView lane_addrs;

    static WarpInst
    compute(std::uint32_t cycles)
    {
        WarpInst w;
        w.op = WarpOp::kCompute;
        w.cycles = cycles;
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

static_assert(sizeof(WarpInst) <= 24, "a warp instruction is a small record");

/**
 * One warp's instructions in issue order, with every load's and store's
 * lanes packed back to back in one byte arena the warp owns.  A move
 * keeps the views (the arena's buffer moves with it); a copy packs the
 * lanes into an arena of its own, exactly sized, and re-points its views
 * there.
 */
class WarpInsts
{
  public:
    WarpInsts() = default;

    /** A copy of [@p first, @p last), lanes in one exactly sized arena. */
    WarpInsts(const WarpInst *first, const WarpInst *last)
    {
        std::size_t bytes = 0;
        for (const WarpInst *i = first; i != last; ++i)
            bytes += i->lane_addrs.byteSize();
        insts_.reserve(std::size_t(last - first));
        lanes_.reserve(bytes);
        for (; first != last; ++first)
            add(*first);
    }

    WarpInsts(const WarpInsts &o) : WarpInsts(o.begin(), o.end()) {}
    WarpInsts(WarpInsts &&) noexcept = default;

    WarpInsts &
    operator=(const WarpInsts &o)
    {
        if (this != &o)
            *this = WarpInsts(o);
        return *this;
    }

    WarpInsts &operator=(WarpInsts &&) noexcept = default;

    std::size_t size() const { return insts_.size(); }
    bool empty() const { return insts_.empty(); }
    const WarpInst *begin() const { return insts_.data(); }
    const WarpInst *end() const { return insts_.data() + insts_.size(); }
    const WarpInst &operator[](std::size_t i) const { return insts_[i]; }

    /** Room for instructions before the array grows. */
    std::size_t capacity() const { return insts_.capacity(); }
    /** The packed lanes of every memory instruction, in order. */
    const std::vector<std::uint8_t> &arena() const { return lanes_; }

    /** Append @p inst, copying its lanes into this warp's arena. */
    WarpInsts &
    add(const WarpInst &inst)
    {
        WarpInst mine = inst;
        mine.lane_addrs = inst.lane_addrs.empty()
                              ? LaneView()
                              : appendLanes(inst.lane_addrs);
        insts_.push_back(mine);
        return *this;
    }

    /** Append a gather of @p addrs (at most kWarpLanes), packed. */
    WarpInsts &
    load(const std::vector<Vaddr> &addrs)
    {
        return addMem(WarpOp::kLoad, addrs);
    }

    /** Append a scatter to @p addrs (at most kWarpLanes), packed. */
    WarpInsts &
    store(const std::vector<Vaddr> &addrs)
    {
        return addMem(WarpOp::kStore, addrs);
    }

    /** Drop growth slack: both the instructions and the arena end up
     *  exactly sized. */
    void
    shrinkToFit()
    {
        if (lanes_.capacity() != lanes_.size()) {
            std::vector<std::uint8_t> exact(lanes_.begin(), lanes_.end());
            repoint(exact.data());
            lanes_.swap(exact);
        }
        if (insts_.capacity() != insts_.size())
            insts_ = std::vector<WarpInst>(insts_.begin(), insts_.end());
    }

    /** Empty the warp, keeping its storage for reuse. */
    void
    clear()
    {
        insts_.clear();
        lanes_.clear();
    }

  private:
    WarpInsts &
    addMem(WarpOp op, const std::vector<Vaddr> &addrs)
    {
        panicIfNot(addrs.size() <= kWarpLanes,
                   "WarpInsts: more lane addresses than warp lanes");
        std::uint8_t packed[kMaxLaneBytes];
        WarpInst inst;
        inst.op = op;
        inst.lane_addrs =
            LaneView(packed, addrs.size(),
                     packLanes(addrs.data(), addrs.size(), packed));
        return add(inst);
    }

    /** Copy @p lanes' bytes to the end of the arena; view the copy. */
    LaneView
    appendLanes(const LaneView &lanes)
    {
        const std::size_t n = lanes.byteSize();
        std::vector<std::uint8_t> old; // holds the source while copying
        if (lanes_.capacity() - lanes_.size() < n) {
            std::vector<std::uint8_t> bigger;
            bigger.reserve(std::max(2 * lanes_.capacity(), lanes_.size() + n));
            bigger.assign(lanes_.begin(), lanes_.end());
            repoint(bigger.data());
            lanes_.swap(bigger);
            old = std::move(bigger);
        }
        const std::size_t at = lanes_.size();
        lanes_.insert(lanes_.end(), lanes.bytes(), lanes.bytes() + n);
        return LaneView(lanes_.data() + at, lanes.size(), n);
    }

    /** Point every view at the same offset in @p base, a copy of the
     *  arena about to replace it. */
    void
    repoint(const std::uint8_t *base)
    {
        for (WarpInst &inst : insts_) {
            LaneView &v = inst.lane_addrs;
            if (!v.empty())
                v = LaneView(base + (v.bytes() - lanes_.data()), v.size(),
                             v.byteSize());
        }
    }

    std::vector<WarpInst> insts_;
    std::vector<std::uint8_t> lanes_;
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

    /**
     * The instructions not yet read, leaving the stream at its end.
     * Capture takes a kernel's warps this way; a stream that owns its
     * instructions hands them over, arena and all, instead of copying
     * them.
     */
    virtual WarpInsts take() = 0;
};

/**
 * A WarpStream over a pre-built warp, read in place.  The stream either
 * owns the warp (a workload's kernel, until capture takes it) or shares
 * it: trace replay hands in an aliasing pointer to one recorded warp
 * that keeps the whole trace alive, so every launch of a kernel reads
 * the one copy the trace holds.
 */
class VectorWarpStream final : public WarpStream
{
  public:
    using Insts = std::shared_ptr<const WarpInsts>;

    explicit VectorWarpStream(WarpInsts insts)
        : owned_(std::move(insts)), cur_(owned_.begin()),
          end_(owned_.end())
    {
    }

    explicit VectorWarpStream(Insts insts)
        : shared_(std::move(insts)), cur_(shared_->begin()),
          end_(shared_->end())
    {
    }

    // cur_ and end_ point into the warp the stream reads.
    VectorWarpStream(const VectorWarpStream &) = delete;
    VectorWarpStream &operator=(const VectorWarpStream &) = delete;

    const WarpInst *
    next() override
    {
        return cur_ != end_ ? cur_++ : nullptr;
    }

    /**
     * Moves an owned, unread warp out; copies the rest of a shared or
     * started one, whose views then point into the copy's own arena.
     */
    WarpInsts
    take() override
    {
        WarpInsts rest;
        if (!shared_ && cur_ == owned_.begin())
            rest = std::move(owned_);
        else
            rest = WarpInsts(cur_, end_);
        cur_ = end_ = nullptr;
        return rest;
    }

  private:
    WarpInsts owned_;
    Insts shared_;
    const WarpInst *cur_;
    const WarpInst *end_;
};

} // namespace gvc

#endif // GVC_GPU_WARP_INST_HH
