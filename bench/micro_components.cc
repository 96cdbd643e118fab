/**
 * @file
 * Component-level microbenchmarks (google-benchmark): throughput of the
 * structures on the simulator's hot paths — FBT lookups and synonym
 * checks, TLB lookups across geometries, cache array accesses, the
 * coalescer, MSHRs, the event queue itself, and request trains.
 */

#include <benchmark/benchmark.h>

#include "cache/cache_array.hh"
#include "cache/mshr.hh"
#include "core/fbt.hh"
#include "gpu/coalescer.hh"
#include "gpu/warp_inst.hh"
#include "mmu/mem_request.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "tlb/tlb.hh"

using namespace gvc;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.scheduleIn(std::uint64_t(i % 7), [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueSpread(benchmark::State &state)
{
    // Events spread over about 1000 ticks, like an IOMMU backlog: most
    // cells hold one entry, so filing and popping dominate.
    constexpr std::uint64_t kEvents = 1024;
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kEvents; ++i)
            eq.scheduleIn(1 + (i * 7919) % 1000, [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventQueueSpread);

/** The owner of one Hop, for BM_RequestTrain. */
struct TrainBench
{
    EventQueue eq;
    std::uint64_t sink = 0;

    void hit(MemRequest *r) { sink += r->cu; }

    Hop<TrainBench, &TrainBench::hit> hop{eq, *this};
};

void
BM_RequestTrain(benchmark::State &state)
{
    // One divergent memory instruction's 13 line requests crossing one
    // fixed-delay hop: through a Hop (train:1) or as one event each.
    constexpr unsigned kRequests = 13;
    const bool trains = state.range(0) != 0;
    TrainBench b;
    std::vector<MemRequest> reqs(kRequests);
    for (unsigned i = 0; i < kRequests; ++i)
        reqs[i].cu = i;
    for (auto _ : state) {
        for (MemRequest &r : reqs) {
            if (trains)
                b.hop.in(4, &r);
            else
                b.eq.scheduleIn(4, [&b, req = &r] { b.hit(req); });
        }
        b.eq.run();
    }
    benchmark::DoNotOptimize(b.sink);
    state.SetItemsProcessed(state.iterations() * kRequests);
}
BENCHMARK(BM_RequestTrain)->ArgName("train")->Arg(0)->Arg(1);

void
BM_TlbLookupHit(benchmark::State &state)
{
    const unsigned entries = unsigned(state.range(0));
    Tlb tlb(TlbParams{entries, 0, false, false});
    for (Vpn v = 0; v < entries; ++v)
        tlb.insert(0, v, TlbLookup{v, kPermRead, false}, 0);
    Rng rng(1);
    Tick now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlb.lookup(0, rng.below(entries), ++now));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHit)->Arg(32)->Arg(128)->Arg(512);

void
BM_TlbMissAndFill(benchmark::State &state)
{
    Tlb tlb(TlbParams{32, 0, false, false});
    Rng rng(2);
    Tick now = 0;
    for (auto _ : state) {
        const Vpn vpn = rng.below(100000);
        if (!tlb.lookup(0, vpn, ++now))
            tlb.insert(0, vpn, TlbLookup{vpn, kPermRead, false}, now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbMissAndFill);

void
BM_CacheArrayAccess(benchmark::State &state)
{
    CacheArray cache(CacheParams{std::uint64_t(state.range(0)) * 1024,
                                 8, unsigned(kLineSize), true, true});
    Rng rng(3);
    Tick now = 0;
    for (auto _ : state) {
        const std::uint64_t addr = rng.below(65536) * kLineSize;
        if (!cache.access(0, addr, false, ++now))
            cache.insert(0, addr, kPermRead, false, now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayAccess)->Arg(32)->Arg(2048);

void
BM_FbtSynonymCheck(benchmark::State &state)
{
    Fbt fbt(FbtParams{unsigned(state.range(0)), 8, 8, true});
    Rng rng(4);
    for (auto _ : state) {
        const Vpn vpn = 0x1000 + rng.below(50000);
        const Ppn ppn = 0x9000 + (vpn * 3) % 40000;
        benchmark::DoNotOptimize(fbt.onCacheMiss(
            0, vpn, ppn, kPermRead, unsigned(rng.below(32)), false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FbtSynonymCheck)->Arg(1024)->Arg(16384);

void
BM_FbtForwardLookup(benchmark::State &state)
{
    Fbt fbt(FbtParams{16384, 8, 8, true});
    for (Vpn v = 0; v < 8000; ++v)
        fbt.onCacheMiss(0, 0x1000 + v, 0x9000 + v, kPermRead, 0, false);
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fbt.forwardLookup(0, 0x1000 + rng.below(8000)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FbtForwardLookup);

void
BM_FbtReverseLookup(benchmark::State &state)
{
    Fbt fbt(FbtParams{16384, 8, 8, true});
    for (Vpn v = 0; v < 8000; ++v)
        fbt.onCacheMiss(0, 0x1000 + v, 0x9000 + v, kPermRead, 0, false);
    Rng rng(6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fbt.reverseLookup(
            0x9000 + rng.below(16000), unsigned(rng.below(32))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FbtReverseLookup);

void
BM_CoalescerDivergent(benchmark::State &state)
{
    Coalescer c;
    Rng rng(7);
    std::vector<Vaddr> lanes(kWarpLanes);
    for (auto _ : state) {
        for (auto &va : lanes)
            va = rng.below(std::uint64_t(state.range(0))) * 4;
        benchmark::DoNotOptimize(c.coalesce(lanes));
    }
    state.SetItemsProcessed(state.iterations() * kWarpLanes);
}
BENCHMARK(BM_CoalescerDivergent)->Arg(1024)->Arg(1 << 22);

/**
 * Warp-stream drain cost, as the CU issue loop pays it on replay: each
 * next() hands out a pointer into one shared warp, and the loop reads
 * the packed lanes in place.
 */
void
BM_WarpStreamDrain(benchmark::State &state)
{
    constexpr std::size_t kInsts = 256;
    WarpBuilder warp;
    Rng rng(9);
    for (std::size_t i = 0; i < kInsts; ++i) {
        std::vector<Vaddr> lanes(kWarpLanes);
        for (auto &va : lanes)
            va = rng.below(1 << 22) * 4;
        warp.load(lanes);
    }
    const auto insts =
        std::make_shared<const WarpInsts>(warp.finish());
    for (auto _ : state) {
        VectorWarpStream stream(insts);
        while (const WarpInst *inst = stream.next())
            benchmark::DoNotOptimize(inst->lane_addrs.bytes());
    }
    state.SetItemsProcessed(state.iterations() * kInsts);
}
BENCHMARK(BM_WarpStreamDrain);

void
BM_MshrAllocateComplete(benchmark::State &state)
{
    struct Waiter
    {
        Waiter *mshr_next = nullptr;
    };
    MshrTable<Waiter> mshrs;
    Waiter w;
    Rng rng(8);
    for (auto _ : state) {
        const std::uint64_t key = rng.below(64);
        if (mshrs.allocate(key, &w, false) ==
            MshrTable<Waiter>::Result::kPrimary)
            mshrs.complete(key, [](Waiter *) {});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrAllocateComplete);

} // namespace

BENCHMARK_MAIN();
