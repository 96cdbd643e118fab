/**
 * @file
 * Discrete-event simulation core.
 *
 * The entire simulator advances through a single EventQueue: components
 * schedule callbacks at absolute ticks and the queue executes them in
 * (tick, insertion-order) order, which makes every run deterministic.
 * Idle cycles are skipped, so simulated time can advance arbitrarily fast
 * when nothing is happening.
 *
 * Layout: a timing wheel of kWheelSize per-tick FIFO cells covers the
 * near future [now, now + kWheelSize).  Nearly every event in this
 * simulator lands there — pipe, cache, and DRAM latencies are tens of
 * ticks and queue backlogs a few thousand — so schedule() and the
 * drain loop are O(1) appends and pops instead of binary-heap sifts.
 * Events beyond the horizon (page-fault service, deep DRAM backlog)
 * go to a small overflow heap and migrate into the wheel when their
 * tick enters the window.  Callbacks live in a slot pool of fixed-size
 * chunks (slot index -> chunk by shift, position by mask) recycled
 * through a free list; wheel cells and heap entries hold indices, and
 * a chunk never moves once allocated, so no container operation moves
 * a callback object and a running callback stays put while it
 * schedules more events.
 *
 * Order equivalence with a (tick, insertion-seq) priority queue:
 *  - A cell's append order is global insertion order for that tick:
 *    time only advances, so all appends to tick T's cell happen in
 *    execution order, which is insertion order.
 *  - Overflow entries for tick T were necessarily scheduled while T was
 *    outside the window (at some now0 <= T - kWheelSize), i.e. before
 *    any direct append to T (which requires now > T - kWheelSize).
 *    They migrate — in (when, seq) heap order — at the moment now
 *    first advances past T - kWheelSize, which precedes execution of
 *    any event that could append to T directly.  Hence migrated
 *    entries land ahead of all direct appends, completing the order.
 */

#ifndef GVC_SIM_EVENT_QUEUE_HH
#define GVC_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace gvc
{

/**
 * A time-ordered queue of callbacks.  Ties at the same tick execute in
 * scheduling order (FIFO), which keeps pipelines well-defined without
 * explicit priorities.
 */
class EventQueue
{
  public:
    using Callback = gvc::Callback;

    /// Slots per chunk of the callback pool.
    static constexpr unsigned kSlotChunkBits = 10;
    static constexpr std::uint32_t kSlotChunk = 1u << kSlotChunkBits;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** True when no events remain. */
    bool empty() const { return wheel_count_ == 0 && overflow_.empty(); }

    /** Number of events executed since construction/reset. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * Scheduling in the past is a simulator bug.
     */
    void
    schedule(Tick when, Callback cb)
    {
        checkNotPast(when);
        const std::uint32_t slot = allocSlot();
        slotRef(slot) = std::move(cb);
        enqueue(when, slot);
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleIn(Tick delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedule a closure.  It must fit Callback's inline buffer: per-
     * access state belongs in a pooled record the closure points to
     * (capture [this, req]).  A larger closure must be wrapped in a
     * Callback at the call site, so the spill is explicit.
     */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Callback>)
    void
    schedule(Tick when, F &&f)
    {
        static_assert(Callback::storesInline<F>(),
                      "closure spills out of Callback's inline buffer: "
                      "capture a record pointer, or wrap it in "
                      "Callback(...) explicitly");
        checkNotPast(when);
        const std::uint32_t slot = allocSlot();
        slotRef(slot).emplace(std::forward<F>(f));
        enqueue(when, slot);
    }

    /** Schedule closure @p f to run @p delay ticks from now. */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Callback>)
    void
    scheduleIn(Tick delay, F &&f)
    {
        schedule(now_ + delay, std::forward<F>(f));
    }

    /**
     * Execute events until the queue is empty or @p max_events have run.
     * @return number of events executed by this call.
     */
    std::uint64_t
    run(std::uint64_t max_events = ~std::uint64_t{0})
    {
        std::uint64_t n = 0;
        while (n < max_events && advance(~Tick{0})) {
            execOne();
            ++n;
        }
        return n;
    }

    /**
     * Execute all events with tick <= @p until, then advance time to
     * @p until even if the queue drained early.
     */
    void
    runUntil(Tick until)
    {
        while (advance(until))
            execOne();
        if (now_ < until) {
            now_ = until;
            migrate();
        }
    }

    /** Drop all pending events and rewind time to zero. */
    void
    reset()
    {
        for (auto &cell : wheel_)
            cell.clear();
        wheel_count_ = 0;
        cur_head_ = 0;
        overflow_ = {};
        chunks_.clear();
        slot_count_ = 0;
        free_slots_.clear();
        now_ = 0;
        next_seq_ = 0;
        executed_ = 0;
    }

  private:
    /// Wheel horizon: covers every pipeline/cache/DRAM latency and the
    /// realistic DRAM-queue backlog; only fault service and extreme
    /// backlogs overflow.
    static constexpr unsigned kWheelBits = 12;
    static constexpr Tick kWheelSize = Tick{1} << kWheelBits;
    static constexpr Tick kWheelMask = kWheelSize - 1;

    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator>(const FarEntry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    Callback &
    slotRef(std::uint32_t slot)
    {
        return chunks_[slot >> kSlotChunkBits][slot & (kSlotChunk - 1)];
    }

    void
    checkNotPast(Tick when) const
    {
        if (when < now_)
            panic("EventQueue: scheduling event in the past");
    }

    /** An empty slot for a new event's callback. */
    std::uint32_t
    allocSlot()
    {
        if (free_slots_.empty()) {
            const std::uint32_t slot = slot_count_++;
            if ((slot & (kSlotChunk - 1)) == 0)
                chunks_.push_back(std::make_unique<Callback[]>(kSlotChunk));
            return slot;
        }
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }

    /** File @p slot under tick @p when. */
    void
    enqueue(Tick when, std::uint32_t slot)
    {
        if (when - now_ < kWheelSize) {
            wheel_[std::size_t(when & kWheelMask)].push_back(slot);
            ++wheel_count_;
        } else {
            overflow_.push(FarEntry{when, next_seq_++, slot});
        }
    }

    /** Pull every far event whose tick has entered the wheel window. */
    void
    migrate()
    {
        while (!overflow_.empty() &&
               overflow_.top().when - now_ < kWheelSize) {
            const FarEntry e = overflow_.top();
            overflow_.pop();
            wheel_[std::size_t(e.when & kWheelMask)].push_back(e.slot);
            ++wheel_count_;
        }
    }

    /**
     * Advance @c now_ to the next pending event's tick, never past
     * @p limit.  @return true when an event is runnable at @c now_.
     */
    bool
    advance(Tick limit)
    {
        {
            auto &cur = wheel_[std::size_t(now_ & kWheelMask)];
            if (cur_head_ < cur.size())
                return true;
            if (cur_head_) {
                // Tick fully drained; free the cell before its index is
                // reused for now_ + kWheelSize.
                cur.clear();
                cur_head_ = 0;
            }
        }
        while (true) {
            if (wheel_count_ == 0) {
                if (overflow_.empty() || overflow_.top().when > limit)
                    return false;
                now_ = overflow_.top().when; // All nearer cells empty.
            } else {
                if (now_ >= limit)
                    return false;
                ++now_;
            }
            migrate();
            if (!wheel_[std::size_t(now_ & kWheelMask)].empty())
                return true;
        }
    }

    /** Pop and run the next entry of the current tick's cell. */
    void
    execOne()
    {
        auto &cur = wheel_[std::size_t(now_ & kWheelMask)];
        const std::uint32_t slot = cur[cur_head_++];
        --wheel_count_;
        ++executed_;
        // Invoke in place: chunks never move, so the reference stays
        // valid when the callback schedules further events (which may
        // add chunks).  The slot is recycled only after the call, so no
        // new event can overwrite the running callback.
        Callback &cb = slotRef(slot);
        cb();
        cb = nullptr;
        free_slots_.push_back(slot);
    }

    std::vector<std::vector<std::uint32_t>> wheel_{
        std::size_t(kWheelSize)};
    std::size_t cur_head_ = 0;      ///< Drain index into now_'s cell.
    std::uint64_t wheel_count_ = 0; ///< Pending entries across all cells.
    std::priority_queue<FarEntry, std::vector<FarEntry>, std::greater<>>
        overflow_;
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::uint32_t slot_count_ = 0; ///< Slots ever handed out.
    std::vector<std::uint32_t> free_slots_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace gvc

#endif // GVC_SIM_EVENT_QUEUE_HH
