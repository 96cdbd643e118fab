/**
 * @file
 * Figure 12 (Appendix): relative lifetime of pages in each level of the
 * cache hierarchy versus the per-CU TLB, for the bfs workload.
 *
 * TLB lifetime = entry residence (insert -> evict); cache lifetime =
 * active lifetime (insert -> last access).  The paper's observation: by
 * ~5000 ns, 90% of TLB entries are gone while 40% of L1 data and 60% of
 * L2 data is still live — so accesses to that data hit the caches but
 * miss the TLB, which is exactly what a virtual hierarchy filters.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/stats.hh"

using namespace gvc;
using namespace gvc::bench;

int
main()
{
    banner("Figure 12", "lifetimes of TLB entries vs cached data (bfs)");

    // 700 MHz clock: 1 cycle = 1/0.7 ns.  Histogram buckets of 256
    // cycles (~366 ns) out to ~375 us.
    LinearHistogram tlb_life(256.0, 1024);
    LinearHistogram l1_life(256.0, 1024);
    LinearHistogram l2_life(256.0, 1024);

    RunConfig cfg = baseConfig();
    cfg.design = MmuDesign::kBaseline512;
    cfg.soc.track_lifetimes = true;

    runWorkload("bfs", cfg,
                [&](SystemUnderTest &sut, Gpu &, SimContext &) {
                    MmuSystem &sys = sut.system();
                    PerCuTlbs &tlbs = *sys.perCuTlbs();
                    for (unsigned cu = 0; cu < 16; ++cu) {
                        tlb_life.merge(
                            tlbs[cu].lifetimes().histogram());
                        l1_life.merge(
                            sys.l1(cu).lifetimes().histogram());
                    }
                    l2_life.merge(sys.l2().lifetimes().histogram());
                });

    TextTable table({"lifetime (ns)", "TLB entries evicted",
                     "L1 data expired", "L2 data expired"});
    const double ns_per_cycle = 1.0 / 0.7;
    for (const double ns :
         {500.0, 1000.0, 2000.0, 5000.0, 10000.0, 20000.0, 40000.0}) {
        const double cycles = ns / ns_per_cycle;
        table.addRow({TextTable::fmt(ns, 0),
                      TextTable::pct(tlb_life.cdfAt(cycles)),
                      TextTable::pct(l1_life.cdfAt(cycles)),
                      TextTable::pct(l2_life.cdfAt(cycles))});
    }
    table.print();

    std::printf("\nsamples: TLB %llu, L1 %llu, L2 %llu\n",
                (unsigned long long)tlb_life.total(),
                (unsigned long long)l1_life.total(),
                (unsigned long long)l2_life.total());
    std::printf("Paper: at 5000 ns ~90%% of TLB entries are evicted but "
                "only ~60%% of L1 data\nand ~40%% of L2 data has "
                "expired — cached data outlives its translations.\n");
    return 0;
}
