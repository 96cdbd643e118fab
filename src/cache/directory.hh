/**
 * @file
 * Coherence directory between the GPU cache hierarchy and the CPU side
 * (Figures 1 and 6 of the paper place it next to the IOMMU).
 *
 * A lightweight MSI-style protocol over two nodes (the GPU's shared L2
 * and the CPU cluster): the directory tracks, per line, which node
 * holds it and whether it may be dirty, probes the other node on
 * conflicting requests, and moves data over the DRAM channel.  GPU L2
 * evictions are silent (as in real GPUs), so the directory's sharer
 * information is conservative — stale probes to the GPU are exactly
 * what the backward table filters (§4.1).
 */

#ifndef GVC_CACHE_DIRECTORY_HH
#define GVC_CACHE_DIRECTORY_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "mem/dram.hh"
#include "sim/callback.hh"
#include "sim/debug.hh"
#include "sim/sim_context.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gvc
{

/** The two coherence endpoints. */
enum class DirNode : std::uint8_t { kGpu = 0, kCpu = 1 };

/** Outcome a probe sink reports back to the directory. */
struct ProbeOutcome
{
    bool had_line = false;
    bool was_dirty = false;
};

/** Directory configuration. */
struct DirectoryParams
{
    Tick latency = 30; ///< Directory occupancy per request.
};

/** The directory. */
class Directory
{
  public:
    using Params = DirectoryParams;

    /** Probe sink: (physical line, invalidate) -> what the node held. */
    using ProbeSink = std::function<ProbeOutcome(Paddr, bool)>;

    Directory(SimContext &ctx, Dram &dram, Params params = {})
        : ctx_(ctx), dram_(dram), params_(params)
    {
    }

    /** Register the probe sink of one node. */
    void
    setProbeSink(DirNode node, ProbeSink sink)
    {
        sinks_[index(node)] = std::move(sink);
    }

    /**
     * Fetch @p line for @p requester; @p exclusive for stores.  The
     * other node is probed (invalidated) when it may hold a
     * conflicting copy; @p done fires when the data is available.
     */
    void
    fetch(DirNode requester, Paddr line, bool exclusive,
          Callback done)
    {
        ++fetches_;
        // The one closure that carries a whole callback, so it is too
        // big for Callback's inline buffer: wrapped explicitly.
        ctx_.eq.scheduleIn(params_.latency,
                           Callback([this, requester, line, exclusive,
                                     done = std::move(done)]() mutable {
                               fetchAtDirectory(requester, line,
                                                exclusive,
                                                std::move(done));
                           }));
    }

    /** Explicit writeback of a dirty line from @p node. */
    void
    writeback(DirNode node, Paddr line)
    {
        ++writebacks_;
        Entry &e = entries_[lineKey(line)];
        const unsigned bit = 1u << index(node);
        e.sharers &= std::uint8_t(~bit);
        if (e.owner == node)
            e.dirty = false;
        dram_.access(kLineSize, [] {});
    }

    std::uint64_t probesSent() const { return probes_sent_.value; }
    std::uint64_t probeWritebacks() const
    {
        return probe_writebacks_.value;
    }
    std::uint64_t writebacks() const { return writebacks_.value; }

    void
    stats(StatSink &s) const
    {
        s("fetches", fetches_);
        s("probes", probes_sent_);
    }

    /** Current sharer mask of a line (tests). */
    unsigned
    sharersOf(Paddr line) const
    {
        auto it = entries_.find(lineKey(line));
        return it == entries_.end() ? 0u : it->second.sharers;
    }

  private:
    struct Entry
    {
        std::uint8_t sharers = 0; ///< Bit per node (conservative).
        DirNode owner = DirNode::kGpu;
        bool dirty = false;
    };

    static unsigned index(DirNode n) { return unsigned(n); }

    static std::uint64_t
    lineKey(Paddr line)
    {
        return line >> kLineShift;
    }

    void
    fetchAtDirectory(DirNode requester, Paddr line, bool exclusive,
                     Callback done)
    {
        Entry &e = entries_[lineKey(line)];
        const DirNode other = requester == DirNode::kGpu
                                  ? DirNode::kCpu
                                  : DirNode::kGpu;
        const unsigned other_bit = 1u << index(other);

        // Probe the other node when it may hold a conflicting copy:
        // always for exclusive requests, or when it may own it dirty.
        const bool conflict =
            (e.sharers & other_bit) &&
            (exclusive || (e.dirty && e.owner == other));
        if (conflict) {
            ++probes_sent_;
            GVC_DPRINTF(kDirectory, ctx_.now(),
                        "probe node=%u line=%#llx", index(other),
                        (unsigned long long)line);
            ProbeOutcome out;
            if (sinks_[index(other)])
                out = sinks_[index(other)](line, /*invalidate=*/true);
            e.sharers &= std::uint8_t(~other_bit);
            if (out.was_dirty) {
                // The probe recovered dirty data: write it back first.
                ++probe_writebacks_;
                dram_.access(kLineSize, [] {});
            }
        }

        e.sharers |= std::uint8_t(1u << index(requester));
        if (exclusive) {
            e.owner = requester;
            e.dirty = true;
        }

        // Data always moves over the memory channel (dance-hall SoC:
        // no direct cache-to-cache path between CPU and GPU).
        dram_.access(kLineSize, std::move(done));
    }

    SimContext &ctx_;
    Dram &dram_;
    Params params_;
    ProbeSink sinks_[2];
    std::unordered_map<std::uint64_t, Entry> entries_;
    Counter fetches_;
    Counter probes_sent_;
    Counter probe_writebacks_;
    Counter writebacks_;
};

} // namespace gvc

#endif // GVC_CACHE_DIRECTORY_HH
