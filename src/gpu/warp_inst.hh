/**
 * @file
 * Warp-level instruction records emitted by workload kernels.
 *
 * Workloads are expressed as per-warp instruction streams at the
 * granularity that matters for the memory system: compute delays, global
 * memory scatter/gather with per-lane virtual addresses, scratchpad
 * traffic (which bypasses translation entirely), and barriers.  A
 * warp's instruction records and the lanes of its loads and stores,
 * packed in the `.gvct` encoding, share one exactly sized block.
 */

#ifndef GVC_GPU_WARP_INST_HH
#define GVC_GPU_WARP_INST_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
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
    // One- and two-byte varints, most lane deltas, take no loop.
    std::uint64_t v = p[0];
    if (v < 0x80) {
        p += 1;
        return v;
    }
    const std::uint64_t b1 = p[1];
    v = (v & 0x7f) | (b1 & 0x7f) << 7;
    p += 2;
    if (b1 < 0x80)
        return v;
    for (unsigned shift = 14;; shift += 7) {
        const std::uint64_t b = *p++;
        v |= (b & 0x7f) << shift;
        if (b < 0x80)
            return v;
    }
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

/** Bytes of @p v as a LEB128 varint. */
inline constexpr std::size_t
varintSize(std::uint64_t v)
{
    return 1 + std::size_t(63 - std::countl_zero(v | 1)) / 7;
}

/**
 * Pack @p n <= kWarpLanes lanes, lane i being lane(i), into @p out,
 * which has room for kMaxLaneBytes.  @return the bytes written.
 */
template <typename LaneAt>
std::size_t
packLanes(std::size_t n, LaneAt lane, std::uint8_t *out)
{
    std::uint8_t *p = out;
    Vaddr prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Vaddr va = lane(i);
        p = putVarint(p, i == 0 ? va : zigzag(std::int64_t(va - prev)));
        prev = va;
    }
    return std::size_t(p - out);
}

/**
 * One instruction's lane addresses, packed by the lane codec.  The view
 * sits in its instruction's record and finds the bytes by their offset
 * from itself, in the block of the WarpInsts holding it; iterating
 * decodes the addresses in lane order.  So a view is never copied out
 * of its record.  Packing is canonical, so two views hold the same
 * lanes exactly when they hold the same bytes.
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

    LaneView(const LaneView &) = delete;
    LaneView &operator=(const LaneView &) = delete;

    std::size_t size() const { return lanes_; }
    bool empty() const { return lanes_ == 0; }
    const std::uint8_t *
    bytes() const
    {
        return reinterpret_cast<const std::uint8_t *>(this) + word_;
    }
    std::size_t byteSize() const { return size_; }

    iterator begin() const { return iterator(bytes(), lanes_); }
    iterator end() const { return iterator(); }

    friend bool
    operator==(const LaneView &a, const LaneView &b)
    {
        return a.lanes_ == b.lanes_ && a.size_ == b.size_ &&
               (a.size_ == 0 ||
                std::memcmp(a.bytes(), b.bytes(), a.size_) == 0);
    }

  private:
    friend struct WarpInst;

    constexpr LaneView(std::uint32_t word, std::size_t lanes,
                       std::size_t size)
        : word_(word), size_(std::uint16_t(size)),
          lanes_(std::uint8_t(lanes))
    {
    }

    /** A load's or store's lanes: their offset from this view.  A
     *  lane-free op keeps its cycles here. */
    std::uint32_t word_;
    std::uint16_t size_;
    std::uint8_t lanes_;
};

static_assert(kMaxLaneBytes <= 0xffff && kWarpLanes <= 0xff,
              "LaneView's byte and lane counts must hold a full warp");

/**
 * One warp instruction: an 8-byte record, its op in the tail padding of
 * its lane view.  A load or store exists only in the block of a
 * WarpInsts, built through WarpBuilder; the factories here make
 * lane-free ones.
 */
struct WarpInst
{
    /** Active-lane virtual addresses for loads/stores (<= kWarpLanes). */
    [[no_unique_address]] LaneView lane_addrs;
    WarpOp op;

    /** A lane-free op (not a load or store) of @p cycles. */
    constexpr WarpInst(WarpOp op, std::uint32_t cycles)
        : WarpInst(op, cycles, 0, 0)
    {
    }

    /** Compute latency of kCompute; the lanes of a scratch op. */
    std::uint32_t cycles() const { return lane_addrs.word_; }

    static WarpInst
    compute(std::uint32_t cycles)
    {
        return WarpInst(WarpOp::kCompute, cycles);
    }

    static WarpInst
    scratch(bool is_store, unsigned lanes = kWarpLanes)
    {
        return WarpInst(is_store ? WarpOp::kScratchStore
                                 : WarpOp::kScratchLoad,
                        lanes);
    }

    static WarpInst barrier() { return WarpInst(WarpOp::kBarrier, 1); }

    bool
    isGlobalMem() const
    {
        return op == WarpOp::kLoad || op == WarpOp::kStore;
    }

  private:
    friend class WarpBuilder;

    constexpr WarpInst(WarpOp op, std::uint32_t word, std::size_t lanes,
                       std::size_t size)
        : lane_addrs(word, lanes, size), op(op)
    {
    }
};

static_assert(sizeof(WarpInst) == 8, "a warp instruction is 8 bytes");

/**
 * One warp's instructions in issue order, in one exactly sized block:
 * the records, then the packed lanes of every load and store back to
 * back in the same order.  Each view's offset stays within the block,
 * so a move keeps every view; a copy is built into a block of its own.
 */
class WarpInsts
{
  public:
    WarpInsts() = default;

    /** A copy of [@p first, @p last), records of any one warp. */
    WarpInsts(const WarpInst *first, const WarpInst *last);

    WarpInsts(const WarpInsts &o) : WarpInsts(o.begin(), o.end()) {}

    /** Takes @p o's block, leaving @p o empty. */
    WarpInsts(WarpInsts &&o) noexcept
        : block_(std::move(o.block_)), size_(std::exchange(o.size_, 0)),
          lane_bytes_(std::exchange(o.lane_bytes_, 0))
    {
    }

    WarpInsts &
    operator=(const WarpInsts &o)
    {
        if (this != &o)
            *this = WarpInsts(o);
        return *this;
    }

    WarpInsts &
    operator=(WarpInsts &&o) noexcept
    {
        block_ = std::move(o.block_);
        size_ = std::exchange(o.size_, 0);
        lane_bytes_ = std::exchange(o.lane_bytes_, 0);
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const WarpInst *
    begin() const
    {
        return reinterpret_cast<const WarpInst *>(block_.get());
    }
    const WarpInst *end() const { return begin() + size_; }
    const WarpInst &operator[](std::size_t i) const { return begin()[i]; }

    /** Bytes of the block: the records, then the lanes. */
    std::size_t
    blockBytes() const
    {
        return size_ * sizeof(WarpInst) + lane_bytes_;
    }

  private:
    friend class WarpBuilder;

    /** A block for @p n records and @p lane_bytes lanes, unfilled. */
    WarpInsts(std::size_t n, std::size_t lane_bytes)
        : block_(n ? new std::uint8_t[n * sizeof(WarpInst) + lane_bytes]
                   : nullptr),
          size_(n), lane_bytes_(lane_bytes)
    {
        panicIfNot(blockBytes() <= 0xffff'ffffu,
                   "WarpInsts: a warp's block exceeds 4 GiB");
    }

    std::unique_ptr<std::uint8_t[]> block_;
    std::size_t size_ = 0;
    std::size_t lane_bytes_ = 0;
};

/**
 * Builds one warp's instructions in issue order, then finishes them
 * into a WarpInsts of exactly their size.  A load's or store's lanes are
 * packed as they are added.
 */
class WarpBuilder
{
  public:
    std::size_t size() const { return recs_.size(); }
    bool empty() const { return recs_.empty(); }

    /** Bytes of the block finish() makes. */
    std::size_t
    blockBytes() const
    {
        return recs_.size() * sizeof(WarpInst) + lanes_.size();
    }

    /** Append a copy of @p inst, lanes and all. */
    WarpBuilder &
    add(const WarpInst &inst)
    {
        if (!inst.isGlobalMem()) {
            recs_.push_back({inst.op, 0, 0, inst.cycles()});
            return *this;
        }
        const LaneView &v = inst.lane_addrs;
        return packed(inst.op, v.size(), v.bytes(), v.byteSize());
    }

    /** Append a gather of @p addrs (at most kWarpLanes). */
    WarpBuilder &
    load(const std::vector<Vaddr> &addrs)
    {
        return mem(WarpOp::kLoad, addrs.size(),
                   [&](std::size_t i) { return addrs[i]; });
    }

    /** Append a scatter to @p addrs (at most kWarpLanes). */
    WarpBuilder &
    store(const std::vector<Vaddr> &addrs)
    {
        return mem(WarpOp::kStore, addrs.size(),
                   [&](std::size_t i) { return addrs[i]; });
    }

    /** Append a load or store of @p n lanes, lane i at lane(i). */
    template <typename LaneAt>
    WarpBuilder &
    mem(WarpOp op, std::size_t n, LaneAt lane)
    {
        panicIfNot(n <= kWarpLanes,
                   "WarpBuilder: more lane addresses than warp lanes");
        std::uint8_t bytes[kMaxLaneBytes];
        return packed(op, n, bytes, packLanes(n, lane, bytes));
    }

    /** Append a load or store of @p n lanes packed in @p size bytes. */
    WarpBuilder &
    packed(WarpOp op, std::size_t n, const std::uint8_t *bytes,
           std::size_t size)
    {
        recs_.push_back({op, std::uint8_t(n), std::uint16_t(size),
                         std::uint32_t(lanes_.size())});
        lanes_.insert(lanes_.end(), bytes, bytes + size);
        return *this;
    }

    /** The instructions so far, in one exactly sized block. */
    WarpInsts
    finish() const
    {
        WarpInsts w(recs_.size(), lanes_.size());
        std::uint8_t *const block = w.block_.get();
        std::uint8_t *const lanes = block + recs_.size() * sizeof(WarpInst);
        if (!lanes_.empty())
            std::memcpy(lanes, lanes_.data(), lanes_.size());
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            const Rec &r = recs_[i];
            std::uint8_t *const rec = block + i * sizeof(WarpInst);
            const bool mem = r.op == WarpOp::kLoad || r.op == WarpOp::kStore;
            new (rec) WarpInst(r.op,
                               mem ? std::uint32_t(lanes + r.word - rec)
                                   : r.word,
                               r.lanes, r.size);
        }
        return w;
    }

    /** Empty the builder, keeping its storage for reuse. */
    void
    clear()
    {
        recs_.clear();
        lanes_.clear();
    }

  private:
    /** An instruction; word is its cycles, or its lanes' offset. */
    struct Rec
    {
        WarpOp op;
        std::uint8_t lanes;
        std::uint16_t size;
        std::uint32_t word;
    };

    std::vector<Rec> recs_;
    std::vector<std::uint8_t> lanes_;
};

inline WarpInsts::WarpInsts(const WarpInst *first, const WarpInst *last)
{
    WarpBuilder warp;
    for (; first != last; ++first)
        warp.add(*first);
    *this = warp.finish();
}

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
     * instructions hands them over, block and all, instead of copying
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
     * started one into a block of its own.
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
