/**
 * @file
 * System-level tests for the reach-generalized translation stack:
 * reach-disabled knobs leave the classic designs bit-identical,
 * contiguity-coalesced fills and 2 MB pages measurably reduce IOMMU
 * translation traffic, Victima stashing serves per-CU misses from the
 * L2 data array, shootdowns inside multi-page entries are precise, and
 * the reach designs replay bit-identically from captured traces.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "iommu_client.hh"
#include "trace/kernel_source.hh"
#include "trace/trace.hh"

namespace gvc
{
namespace
{

RunResult
run(const char *workload, MmuDesign d, double scale)
{
    RunConfig cfg;
    cfg.design = d;
    cfg.workload.scale = scale;
    return runWorkload(workload, cfg);
}

/** Lossless JSON dump: equal strings == every field bit-identical. */
std::string
dumpOf(const RunResult &r)
{
    return runResultToJson(r).dump();
}

TEST(ReachSystem, InertReachKnobsKeepBaselineBitIdentical)
{
    // With max_reach 0 the merge knob has no buddy ladder to climb and
    // the coalescer is capped at zero: every counter of the classic
    // baseline must be reproduced exactly (the reach-1 identity).
    RunConfig plain;
    plain.design = MmuDesign::kBaseline512;
    plain.workload.scale = 0.05;
    RunConfig knobs = plain;
    knobs.soc.tlb_merge_on_insert = true;
    knobs.soc.coalesce_max_reach = 3; // clamped by tlb_max_reach == 0
    EXPECT_EQ(dumpOf(runWorkload("pagerank", plain)),
              dumpOf(runWorkload("pagerank", knobs)));
}

TEST(ReachSystem, CoalescedFillsReduceIommuTranslationTraffic)
{
    const RunResult base =
        run("pagerank", MmuDesign::kBaseline512, 0.05);
    const RunResult coal =
        run("pagerank", MmuDesign::kBaseCoalesced, 0.05);
    EXPECT_GT(coal.iommu_coalesced_fills, 0u);
    EXPECT_GT(coal.tlb_reach_hits, 0u);
    // Wide per-CU entries absorb misses that previously reached the
    // shared IOMMU TLB.
    EXPECT_LT(coal.iommu_accesses, base.iommu_accesses);
    EXPECT_LE(coal.tlb_misses, base.tlb_misses);
}

TEST(ReachSystem, TwoMbPagesReduceIommuTranslationTraffic)
{
    // kmeans maps multi-MB arrays: the 2 MB interior policy backs them
    // with large pages, the walker stops at level 3, and reach-9 TLB
    // entries collapse per-CU miss streams.
    const RunResult base = run("kmeans", MmuDesign::kBaseline512, 0.5);
    const RunResult big = run("kmeans", MmuDesign::kBase2MB, 0.5);
    EXPECT_GT(big.large_page_walks, 0u);
    EXPECT_GT(big.tlb_reach_fills, 0u);
    EXPECT_LT(big.iommu_accesses, base.iommu_accesses);
    EXPECT_LT(big.page_walks, base.page_walks);
}

TEST(ReachSystem, VictimaStashServesMissesFromL2)
{
    const RunResult base =
        run("pagerank", MmuDesign::kBaseline512, 0.05);
    const RunResult vic =
        run("pagerank", MmuDesign::kBaseVictima, 0.05);
    EXPECT_GT(vic.victima_stashes, 0u);
    EXPECT_GT(vic.victima_hits, 0u);
    // Every stash probe hit is a translation the IOMMU never sees (the
    // stash also perturbs L2 contents, so only the direction is stable).
    EXPECT_LT(vic.iommu_accesses, base.iommu_accesses);
}

TEST(ReachSystem, ReachDesignsReplayBitIdentically)
{
    // The replay-identity tentpole property must hold for the new
    // designs too: capture once, replay per design, compare every
    // counter (kmeans at scale 0.5 exercises real 2 MB interiors).
    RunConfig cfg;
    cfg.workload.scale = 0.5;
    const trace::Trace t = trace::captureWorkloadTrace(
        "kmeans", cfg.workload, cfg.soc.phys_mem_bytes);
    auto shared = std::make_shared<const trace::Trace>(t);
    for (const MmuDesign d :
         {MmuDesign::kBase2MB, MmuDesign::kBaseCoalesced,
          MmuDesign::kBaseVictima}) {
        cfg.design = d;
        const RunResult live = runWorkload("kmeans", cfg);
        trace::TraceKernelSource source(shared);
        const RunResult replayed = runSource(source, cfg);
        EXPECT_EQ(dumpOf(live), dumpOf(replayed)) << designName(d);
    }
}

// ---------------------------------------------------------------------
// Reach-aware shootdown precision at the IOMMU
// ---------------------------------------------------------------------

class ReachIommuTest : public ::testing::Test
{
  protected:
    ReachIommuTest() : pm_(std::uint64_t{1} << 30), vm_(pm_), dram_(ctx_, {})
    {
        asid_ = vm_.createProcess();
    }

    SimContext ctx_;
    PhysMem pm_;
    Vm vm_;
    Dram dram_;
    Asid asid_ = 0;
};

TEST_F(ReachIommuTest, ShootdownInsideCoalescedEntryLeavesNoStaleState)
{
    const Vaddr base = vm_.mmapAnon(asid_, 64 * kPageSize);
    IommuParams p;
    p.tlb_max_reach = kMaxReachLog2;
    p.coalesce_max_reach = 3;
    test::IommuClient io(ctx_, vm_, dram_, p);

    // An 8-page aligned block inside the region, fully mapped with
    // bump-allocated (contiguous) frames: one walk fills reach 3.  The
    // second aligned block, because mapping the region's first page
    // also allocates page-table node frames, splitting that ppn run.
    const Vpn blk = ((pageOf(base) + 7) & ~Vpn{7}) + 8;
    const IommuResponse first = io.translateNow(asid_, blk);
    EXPECT_EQ(first.reach, 3u);
    EXPECT_EQ(snapshotOf(io.iommu()).get("coalesced_fills"), 1u);
    EXPECT_EQ(io.iommu().walks(), 1u);

    // Protect one interior 4 KB page: the whole coalesced entry must
    // die, and the next lookup of that page must see the new perms —
    // a stale wide entry would keep translating it as writable.
    const Vpn victim = blk + 3;
    vm_.protect(asid_, Vaddr(victim) << kPageShift, kPageSize,
                kPermRead);
    const IommuResponse after = io.translateNow(asid_, victim);
    EXPECT_FALSE(after.fault);
    EXPECT_EQ(after.perms, kPermRead);
    EXPECT_EQ(io.iommu().walks(), 2u);

    // Untouched neighbors still translate to their original frames.
    const IommuResponse nb = io.translateNow(asid_, blk + 4);
    EXPECT_EQ(nb.ppn, first.ppn + 4);
    EXPECT_EQ(nb.perms, kPermRead | kPermWrite);
}

TEST_F(ReachIommuTest, ShootdownInsideLargePageEntryLeavesNoStaleState)
{
    const Vaddr base = vm_.mmapAnonLarge(asid_, kLargePageSize);
    IommuParams p;
    p.tlb_max_reach = kMaxReachLog2;
    test::IommuClient io(ctx_, vm_, dram_, p);

    const Vpn first = pageOf(base);
    const IommuResponse wide = io.translateNow(asid_, first + 10);
    EXPECT_TRUE(wide.large);
    EXPECT_EQ(wide.reach, kMaxReachLog2);

    // One 4 KB protect inside the 2 MB mapping: the page table splits
    // the leaf and the reach-9 entry is shot down whole.
    vm_.protect(asid_, Vaddr(first + 10) << kPageShift, kPageSize,
                kPermRead);
    const IommuResponse after = io.translateNow(asid_, first + 10);
    EXPECT_EQ(after.perms, kPermRead);
    EXPECT_FALSE(after.large); // split demoted the leaf
    const IommuResponse nb = io.translateNow(asid_, first + 11);
    EXPECT_EQ(nb.ppn, wide.ppn + 1);
    EXPECT_EQ(nb.perms, kPermRead | kPermWrite);
}

} // namespace
} // namespace gvc
