/**
 * @file
 * Tests for the pooled request records of the memory hierarchies: every
 * design completes accesses from a system built over a temporary
 * SocConfig, and once the event queue drains every access, IOMMU and
 * page-walk record is back in its pool — on whole workloads and on the
 * paths that park or re-issue a request (merged TLB misses, Victima
 * stash hits, fault-fixer retries, synonym replays).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "harness/runner.hh"
#include "mmu/designs.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

constexpr MmuDesign kEveryDesign[] = {
    MmuDesign::kIdeal,         MmuDesign::kBaseline512,
    MmuDesign::kBaseline16K,   MmuDesign::kBaselineLargeTlb,
    MmuDesign::kVcNoOpt,       MmuDesign::kVcOpt,
    MmuDesign::kL1Vc32,        MmuDesign::kL1Vc128,
    MmuDesign::kBase2MB,       MmuDesign::kBaseCoalesced,
    MmuDesign::kBaseVictima,
};

std::string
paramName(const ::testing::TestParamInfo<MmuDesign> &info)
{
    std::string name;
    for (const char c : std::string(designName(info.param)))
        if (std::isalnum(static_cast<unsigned char>(c)))
            name += c;
    return name;
}

class RequestRecords : public ::testing::TestWithParam<MmuDesign>
{
};

TEST_P(RequestRecords, SystemBuiltFromATemporaryConfigServesLoadAndStore)
{
    const MmuDesign d = GetParam();
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    // configFor() returns a temporary that dies with this statement: the
    // system must keep what it needs by value.
    SystemUnderTest sut(ctx, configFor(d), vm, dram, d);
    const Asid asid = vm.createProcess();
    const Vaddr buf = vm.mmapAnon(asid, 4 * kPageSize);

    unsigned loads = 0, stores = 0;
    sut.memIf().access(0, asid, buf, false, [&] { ++loads; });
    sut.memIf().access(1, asid, buf + kPageSize, true, [&] { ++stores; });
    ctx.eq.run();
    EXPECT_EQ(loads, 1u);
    EXPECT_EQ(stores, 1u);
    EXPECT_EQ(sut.recordsInFlight(), 0u);
}

TEST_P(RequestRecords, EveryRecordIsBackInItsPoolAfterAWorkload)
{
    RunConfig cfg;
    cfg.design = GetParam();
    cfg.workload.scale = 0.05;
    std::size_t in_flight = ~std::size_t{0};
    std::uint64_t iommu_accesses = 0;
    const RunResult r = runWorkload(
        "pagerank", cfg, [&](SystemUnderTest &sut, Gpu &, SimContext &) {
            in_flight = sut.recordsInFlight();
            if (Iommu *io = sut.iommu())
                iommu_accesses = io->accesses();
        });
    EXPECT_GT(r.mem_instructions, 0u);
    EXPECT_EQ(in_flight, 0u);
    if (GetParam() != MmuDesign::kIdeal) {
        EXPECT_GT(iommu_accesses, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllElevenDesigns, RequestRecords,
                         ::testing::ValuesIn(kEveryDesign), paramName);

TEST(RequestRecordPaths, MergedTlbMissesReturnEveryRecord)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    SocConfig cfg = configFor(MmuDesign::kBaseline512);
    cfg.gpu.num_cus = 4;
    BaselineMmuSystem sys(ctx, cfg, vm, dram, /*merge_tlb_misses=*/true);
    const Asid asid = vm.createProcess();
    const Vaddr buf = vm.mmapAnon(asid, 64 * kPageSize);

    // Bursts of lines on few pages from few CUs: most misses queue
    // behind an outstanding translation of the same (CU, page).
    Rng rng(11);
    unsigned issued = 0, done = 0;
    for (int burst = 0; burst < 20; ++burst) {
        for (int i = 0; i < 64; ++i) {
            const Vaddr va = buf + rng.below(64) * kPageSize +
                             rng.below(kLinesPerPage) * kLineSize;
            sys.access(unsigned(rng.below(4)), asid, va, rng.chance(0.3),
                       [&done] { ++done; });
            ++issued;
        }
        ctx.eq.run();
    }
    EXPECT_EQ(done, issued);
    EXPECT_LT(sys.iommu().accesses(), sys.tlbMisses());
    EXPECT_EQ(sys.requestsInFlight(), 0u);
    EXPECT_EQ(sys.iommu().requestsInFlight(), 0u);
    EXPECT_EQ(sys.iommu().ptw().walksInFlight(), 0u);
}

TEST(RequestRecordPaths, VictimaStashHitsReturnEveryRecord)
{
    RunConfig cfg;
    cfg.design = MmuDesign::kBaseVictima;
    cfg.workload.scale = 0.05;
    std::size_t in_flight = ~std::size_t{0};
    std::uint64_t stash_hits = 0;
    runWorkload("pagerank", cfg,
                [&](SystemUnderTest &sut, Gpu &, SimContext &) {
                    in_flight = sut.recordsInFlight();
                    stash_hits = sut.baseline()->victimaHits();
                });
    EXPECT_GT(stash_hits, 0u);
    EXPECT_EQ(in_flight, 0u);
}

TEST(RequestRecordPaths, FaultFixerRetriesReturnEveryRecord)
{
    for (const MmuDesign d : {MmuDesign::kBaseline512, MmuDesign::kVcOpt,
                              MmuDesign::kL1Vc32}) {
        SimContext ctx;
        PhysMem pm(std::uint64_t{1} << 30);
        Vm vm(pm);
        Dram dram(ctx, {});
        SystemUnderTest sut(ctx, configFor(d), vm, dram, d);
        const Asid asid = vm.createProcess();
        unsigned fixed = 0;
        sut.iommu()->setFaultFixer([&](Asid a, Vpn vpn) {
            vm.pageTable(a).map(vpn, pm.allocFrame(),
                                kPermRead | kPermWrite);
            ++fixed;
            return true;
        });
        // Nothing is mapped: every first walk faults and is retried.
        const Vaddr lazy = 0x7000'0000;
        unsigned done = 0;
        for (int i = 0; i < 4; ++i)
            sut.memIf().access(unsigned(i), asid,
                               lazy + Vaddr(i) * kPageSize, i % 2 == 1,
                               [&done] { ++done; });
        ctx.eq.run();
        EXPECT_EQ(done, 4u) << designName(d);
        EXPECT_EQ(fixed, 4u) << designName(d);
        EXPECT_EQ(sut.recordsInFlight(), 0u) << designName(d);
    }
}

TEST(RequestRecordPaths, SynonymReplaysReturnEveryRecord)
{
    for (const MmuDesign d : {MmuDesign::kVcNoOpt, MmuDesign::kL1Vc32}) {
        SimContext ctx;
        PhysMem pm(std::uint64_t{1} << 30);
        Vm vm(pm);
        Dram dram(ctx, {});
        SocConfig cfg = configFor(d);
        cfg.gpu.num_cus = 2;
        SystemUnderTest sut(ctx, cfg, vm, dram, d);
        const Asid asid = vm.createProcess();
        const Vaddr ro = vm.mmapAnon(asid, 8 * kPageSize, kPermRead);
        const Vaddr alias =
            vm.alias(asid, asid, ro, 8 * kPageSize, kPermRead);
        // The original name caches each line first; the alias then
        // finds it under the leading name and replays.
        unsigned issued = 0, done = 0;
        for (int round = 0; round < 3; ++round) {
            for (const Vaddr base : {ro, alias}) {
                for (unsigned p = 0; p < 8; ++p) {
                    sut.memIf().access(p % 2, asid, base + p * kPageSize,
                                       false, [&done] { ++done; });
                    ++issued;
                }
                ctx.eq.run();
            }
        }
        EXPECT_EQ(done, issued) << designName(d);
        const std::uint64_t replays =
            sut.vc() ? sut.vc()->synonymReplays()
                     : sut.l1vc()->synonymReplays();
        EXPECT_GT(replays, 0u) << designName(d);
        EXPECT_EQ(sut.recordsInFlight(), 0u) << designName(d);
    }
}

} // namespace
} // namespace gvc
