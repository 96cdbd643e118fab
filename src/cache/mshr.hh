/**
 * @file
 * Miss-status holding registers: merge concurrent misses to the same
 * line so only the primary miss issues a fill; every waiter, the
 * primary first, is woken in merge order when the fill completes.
 */

#ifndef GVC_CACHE_MSHR_HH
#define GVC_CACHE_MSHR_HH

#include <cstdint>
#include <unordered_map>

#include "sim/stats.hh"

namespace gvc
{

/**
 * MSHR table keyed by an opaque 64-bit line key (callers fold ASID /
 * address space into the key).  Waiters are the callers' own request
 * records, chained through their @c mshr_next member into one FIFO per
 * entry, so a merge allocates nothing.  The entry also ORs the waiters'
 * store flags: a fill some waiter stores to must fetch exclusive and
 * land dirty.
 *
 * Unlimited capacity by default; a finite limit can be configured, in
 * which case allocation failure is reported and the caller must retry
 * (GPUs stall the pipe).
 */
template <typename W>
class MshrTable
{
  public:
    explicit MshrTable(std::size_t max_entries = 0)
        : max_entries_(max_entries)
    {
    }

    /** Allocation outcome. */
    enum class Result {
        kPrimary,   ///< New entry: the caller must issue the fill.
        kSecondary, ///< Merged into an outstanding fill.
        kFull,      ///< No entry available; retry later.
    };

    /**
     * Queue @p w behind a miss on @p key.  kPrimary and kSecondary both
     * queue it (kPrimary with a fresh entry whose fill the caller must
     * issue); kFull leaves it untouched.
     */
    Result
    allocate(std::uint64_t key, W *w, bool is_store)
    {
        auto it = entries_.find(key);
        Result res = Result::kSecondary;
        if (it == entries_.end()) {
            if (max_entries_ && entries_.size() >= max_entries_) {
                ++rejected_;
                return Result::kFull;
            }
            ++allocated_;
            it = entries_.emplace(key, Entry{}).first;
            res = Result::kPrimary;
        }
        // The primary counts as its own first merge, as every waiter
        // woken by the fill does.
        ++merged_;
        Entry &e = it->second;
        w->mshr_next = nullptr;
        if (e.tail)
            e.tail->mshr_next = w;
        else
            e.head = w;
        e.tail = w;
        e.store = e.store || is_store;
        return res;
    }

    /** True if a miss on @p key is already outstanding. */
    bool outstanding(std::uint64_t key) const
    {
        return entries_.count(key) != 0;
    }

    /** True if any waiter merged so far on @p key is a store. */
    bool
    storePending(std::uint64_t key) const
    {
        auto it = entries_.find(key);
        return it != entries_.end() && it->second.store;
    }

    /**
     * Complete the fill for @p key: removes the entry and calls
     * @p wake(W *) on every waiter in merge order.  A waiter may be
     * recycled by @p wake; its link is read first.
     */
    template <typename Fn>
    void
    complete(std::uint64_t key, Fn &&wake)
    {
        auto it = entries_.find(key);
        if (it == entries_.end())
            return;
        W *w = it->second.head;
        entries_.erase(it);
        while (w) {
            W *next = w->mshr_next;
            wake(w);
            w = next;
        }
    }

    std::size_t inFlight() const { return entries_.size(); }
    std::uint64_t allocations() const { return allocated_.value; }
    std::uint64_t merges() const { return merged_.value; }
    std::uint64_t rejections() const { return rejected_.value; }

  private:
    struct Entry
    {
        W *head = nullptr;
        W *tail = nullptr;
        bool store = false;
    };

    std::size_t max_entries_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    Counter allocated_;
    Counter merged_;
    Counter rejected_;
};

} // namespace gvc

#endif // GVC_CACHE_MSHR_HH
