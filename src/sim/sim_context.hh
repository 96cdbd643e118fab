/**
 * @file
 * SimContext bundles the shared per-simulation services (event queue,
 * RNG) so components take a single dependency.  Counters are not a
 * shared service: each component owns its own and lists them in a
 * stats() member, and StatSink (sim/stats.hh) collects those lists
 * into one snapshot at kernel boundaries and at run end.
 */

#ifndef GVC_SIM_SIM_CONTEXT_HH
#define GVC_SIM_SIM_CONTEXT_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace gvc
{

/** Shared services for one simulation instance. */
struct SimContext
{
    explicit SimContext(std::uint64_t seed = 1) : rng(seed) {}

    EventQueue eq;
    Rng rng;

    Tick now() const { return eq.now(); }
};

} // namespace gvc

#endif // GVC_SIM_SIM_CONTEXT_HH
