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
 * tick enters the window.
 *
 * Events live in a slot pool of fixed-size chunks (slot index -> chunk
 * by shift, position by mask).  A slot holds the callback and one
 * @c next link beside it: a wheel cell is a {head, tail} pair of slot
 * indices whose entries are linked through @c next, and the free list
 * reuses the same link.  Filing, popping and recycling an event are a
 * few index writes in the chunk the callback already occupies; no
 * per-cell vector grows or is cleared.  A chunk never moves once
 * allocated, so a running callback stays put while it schedules more
 * events.  schedule() returns the slot, and isTail() tells whether that
 * event is still the last one filed under its tick — the test a
 * request train (mmu/mem_request.hh) makes before it lets a request
 * ride on an already-scheduled event.
 *
 * Order equivalence with a (tick, insertion-seq) priority queue:
 *  - A cell's append order is global insertion order for that tick:
 *    time only advances, so all appends to tick T's cell happen in
 *    execution order, which is insertion order.
 *  - Overflow entries for tick T were necessarily scheduled while T was
 *    outside the window (at some now0 <= T - kWheelSize), i.e. before
 *    any direct append to T (which requires now > T - kWheelSize).
 *    They migrate — in (when, seq) heap order, each appended at the
 *    cell's tail — at the moment now first advances past
 *    T - kWheelSize, which precedes execution of any event that could
 *    append to T directly.  Hence migrated entries land ahead of all
 *    direct appends, completing the order.
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
     * @return the event's slot, for isTail().
     */
    std::uint32_t
    schedule(Tick when, Callback cb)
    {
        checkNotPast(when);
        const std::uint32_t slot = allocSlot();
        slotRef(slot).cb = std::move(cb);
        enqueue(when, slot);
        return slot;
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    std::uint32_t
    scheduleIn(Tick delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedule a closure.  It must fit Callback's inline buffer: per-
     * access state belongs in a pooled record the closure points to
     * (capture [this, req]).  A larger closure must be wrapped in a
     * Callback at the call site, so the spill is explicit.
     */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Callback>)
    std::uint32_t
    schedule(Tick when, F &&f)
    {
        static_assert(Callback::storesInline<F>(),
                      "closure spills out of Callback's inline buffer: "
                      "capture a record pointer, or wrap it in "
                      "Callback(...) explicitly");
        checkNotPast(when);
        const std::uint32_t slot = allocSlot();
        slotRef(slot).cb.emplace(std::forward<F>(f));
        enqueue(when, slot);
        return slot;
    }

    /** Schedule closure @p f to run @p delay ticks from now. */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Callback>)
    std::uint32_t
    scheduleIn(Tick delay, F &&f)
    {
        return schedule(now_ + delay, std::forward<F>(f));
    }

    /**
     * True when the event in @p slot, scheduled for tick @p when, is
     * still the last event filed under that tick: nothing was scheduled
     * for @p when after it and it has not been popped.  Always false for
     * an event still beyond the wheel horizon.  A slot is recycled once
     * its event has run, so the caller must know that the event has not
     * run yet.
     */
    bool
    isTail(Tick when, std::uint32_t slot) const
    {
        return when - now_ < kWheelSize &&
               wheel_[std::size_t(when & kWheelMask)].tail == slot;
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

    /**
     * Drop all pending events and rewind time to zero.  Slots are handed
     * out afresh, so an isTail() caller must forget the slots it holds.
     */
    void
    reset()
    {
        wheel_.assign(std::size_t(kWheelSize), Cell{});
        wheel_count_ = 0;
        overflow_ = {};
        chunks_.clear();
        slot_count_ = 0;
        free_head_ = kNoSlot;
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

    /// The end of a cell's list or of the free list.
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** One event: its callback and the link to the next in its list. */
    struct Slot
    {
        Callback cb;
        std::uint32_t next = kNoSlot;
    };

    /** One tick's FIFO of slots, linked through Slot::next. */
    struct Cell
    {
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;
    };

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

    Slot &
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
        if (free_head_ == kNoSlot) {
            const std::uint32_t slot = slot_count_++;
            if ((slot & (kSlotChunk - 1)) == 0)
                chunks_.push_back(std::make_unique<Slot[]>(kSlotChunk));
            return slot;
        }
        const std::uint32_t slot = free_head_;
        free_head_ = slotRef(slot).next;
        return slot;
    }

    /** Link @p slot at the tail of tick @p when's cell. */
    void
    append(Tick when, std::uint32_t slot)
    {
        Cell &cell = wheel_[std::size_t(when & kWheelMask)];
        slotRef(slot).next = kNoSlot;
        if (cell.tail == kNoSlot)
            cell.head = slot;
        else
            slotRef(cell.tail).next = slot;
        cell.tail = slot;
        ++wheel_count_;
    }

    /** File @p slot under tick @p when. */
    void
    enqueue(Tick when, std::uint32_t slot)
    {
        if (when - now_ < kWheelSize)
            append(when, slot);
        else
            overflow_.push(FarEntry{when, next_seq_++, slot});
    }

    /** Pull every far event whose tick has entered the wheel window. */
    void
    migrate()
    {
        while (!overflow_.empty() &&
               overflow_.top().when - now_ < kWheelSize) {
            const FarEntry e = overflow_.top();
            overflow_.pop();
            append(e.when, e.slot);
        }
    }

    /**
     * Advance @c now_ to the next pending event's tick, never past
     * @p limit.  @return true when an event is runnable at @c now_.
     */
    bool
    advance(Tick limit)
    {
        if (wheel_[std::size_t(now_ & kWheelMask)].head != kNoSlot)
            return true;
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
            if (wheel_[std::size_t(now_ & kWheelMask)].head != kNoSlot)
                return true;
        }
    }

    /** Pop and run the head of the current tick's cell. */
    void
    execOne()
    {
        Cell &cell = wheel_[std::size_t(now_ & kWheelMask)];
        const std::uint32_t slot = cell.head;
        // Unlink before the call: the callback may append to this cell,
        // and isTail() must be false for a popped event.
        Slot &s = slotRef(slot);
        cell.head = s.next;
        if (cell.head == kNoSlot)
            cell.tail = kNoSlot;
        --wheel_count_;
        ++executed_;
        // Invoke in place: chunks never move, so the reference stays
        // valid when the callback schedules further events (which may
        // add chunks).  The slot is recycled only after the call, so no
        // new event can overwrite the running callback.
        s.cb();
        s.cb = nullptr;
        s.next = free_head_;
        free_head_ = slot;
    }

    std::vector<Cell> wheel_{std::size_t(kWheelSize)};
    std::uint64_t wheel_count_ = 0; ///< Pending entries across all cells.
    std::priority_queue<FarEntry, std::vector<FarEntry>, std::greater<>>
        overflow_;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t slot_count_ = 0;       ///< Slots ever handed out.
    std::uint32_t free_head_ = kNoSlot;  ///< Free list, through Slot::next.
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace gvc

#endif // GVC_SIM_EVENT_QUEUE_HH
