/**
 * @file
 * Tests for the design rows (Table 2 configurations, labels and CLI
 * spellings), the SystemUnderTest wrapper and the counter paths of
 * its stats snapshot, plus warp-scheduler policy behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "gpu/gpu.hh"
#include "harness/cli.hh"
#include "harness/runner.hh"
#include "mmu/designs.hh"

namespace gvc
{
namespace
{

TEST(Designs, ConfigForMatchesTable2)
{
    const SocConfig b512 = configFor(MmuDesign::kBaseline512);
    EXPECT_EQ(b512.percu_tlb_entries, 32u);
    EXPECT_EQ(b512.iommu.tlb_entries, 512u);
    EXPECT_FALSE(b512.iommu.unlimited_bw);

    const SocConfig b16k = configFor(MmuDesign::kBaseline16K);
    EXPECT_EQ(b16k.iommu.tlb_entries, 16u * 1024);

    const SocConfig big = configFor(MmuDesign::kBaselineLargeTlb);
    EXPECT_EQ(big.percu_tlb_entries, 128u);

    const SocConfig ideal = configFor(MmuDesign::kIdeal);
    EXPECT_TRUE(ideal.percu_tlb_infinite);
    EXPECT_TRUE(ideal.iommu.tlb_infinite);
    EXPECT_TRUE(ideal.iommu.unlimited_bw);

    const SocConfig vc = configFor(MmuDesign::kVcNoOpt);
    EXPECT_EQ(vc.iommu.tlb_entries, 512u);
    EXPECT_FALSE(vc.fbt_as_second_level_tlb);

    const SocConfig vco = configFor(MmuDesign::kVcOpt);
    EXPECT_TRUE(vco.fbt_as_second_level_tlb);

    EXPECT_EQ(configFor(MmuDesign::kL1Vc128).percu_tlb_entries, 128u);
}

TEST(Designs, NamesAreDistinct)
{
    for (const DesignRow &a : kDesignRows) {
        for (const DesignRow &b : kDesignRows) {
            if (a.design != b.design) {
                EXPECT_STRNE(a.label, b.label);
            }
        }
    }
}

TEST(Designs, TableMentionsEveryPaperDesign)
{
    const std::string t = designTable();
    for (const DesignRow &row : kDesignRows)
        EXPECT_NE(t.find(row.label), std::string::npos) << row.label;
}

TEST(Designs, EverySpellingRoundTripsToItsLabel)
{
    for (const DesignRow &row : kDesignRows) {
        EXPECT_EQ(designName(row.design), std::string(row.label));
        MmuDesign from_label;
        ASSERT_TRUE(designFromName(row.label, from_label)) << row.label;
        EXPECT_EQ(from_label, row.design);
        ASSERT_NE(row.spellings[0], nullptr) << row.label;
        for (const char *spelling : row.spellings) {
            if (!spelling)
                continue;
            MmuDesign parsed;
            ASSERT_TRUE(tryParseDesign(spelling, parsed)) << spelling;
            EXPECT_EQ(parsed, row.design) << spelling;
            EXPECT_STREQ(designName(parsed), row.label) << spelling;
        }
    }
}

TEST(Designs, SystemUnderTestExposesTheRightConcreteSystem)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});

    for (const DesignRow &row : kDesignRows) {
        SystemUnderTest sut(ctx, configFor(row.design), vm, dram,
                            row.design);
        const Hierarchy h = row.hierarchy;
        EXPECT_EQ(sut.ideal() != nullptr, h == Hierarchy::kIdeal)
            << row.label;
        EXPECT_EQ(sut.baseline() != nullptr, h == Hierarchy::kPhysical)
            << row.label;
        EXPECT_EQ(sut.vc() != nullptr, h == Hierarchy::kVirtual)
            << row.label;
        EXPECT_EQ(sut.l1vc() != nullptr, h == Hierarchy::kL1Virtual)
            << row.label;
        EXPECT_EQ(sut.iommu() == nullptr, h == Hierarchy::kIdeal)
            << row.label;
        const bool percu =
            h == Hierarchy::kPhysical || h == Hierarchy::kL1Virtual;
        EXPECT_EQ(sut.system().perCuTlbs() != nullptr, percu)
            << row.label;
    }
}

/** The snapshot paths of @p design after bfs at scale 0.05. */
std::vector<std::string>
snapshotPaths(MmuDesign design)
{
    RunConfig cfg;
    cfg.design = design;
    cfg.workload.scale = 0.05;
    StatSnapshot snap;
    runWorkload("bfs", cfg,
                [&](SystemUnderTest &sut, Gpu &gpu, SimContext &ctx) {
                    snap = snapshotStats(sut, gpu, ctx);
                });
    std::vector<std::string> paths;
    for (const auto &row : snap.rows)
        paths.push_back(row.first);
    return paths;
}

TEST(Designs, SnapshotPathsPerHierarchy)
{
    using Paths = std::vector<std::string>;
    const Paths shared = {"directory.fetches",
                          "directory.probes",
                          "dram.accesses",
                          "dram.bytes",
                          "dram.queue_delay",
                          "gpu.coalesced_lines",
                          "gpu.instructions",
                          "gpu.mem_instructions",
                          "gpu.scratch_instructions",
                          "l1.accesses",
                          "l1.hits",
                          "l2.accesses",
                          "l2.hits",
                          "sim.ticks"};
    const Paths tlb = {"accesses",       "hits",
                       "misses",         "reach_hits",
                       "reach_fills",    "merges",
                       "fill_bypasses",  "shootdowns",
                       "dead_first_evictions",
                       "pred_true_pos",  "pred_false_pos"};
    Paths iommu = {"iommu.accesses",
                   "iommu.walks",
                   "iommu.faults",
                   "iommu.serialization_cycles",
                   "iommu.second_level_lookups",
                   "iommu.second_level_hits",
                   "iommu.coalesced_fills",
                   "iommu.ptw.requests",
                   "iommu.ptw.completed",
                   "iommu.ptw.latency_sum",
                   "iommu.ptw.large_walks",
                   "iommu.pwc.accesses",
                   "iommu.pwc.hits"};
    Paths percu;
    for (const std::string &t : tlb) {
        iommu.push_back("iommu.tlb." + t);
        percu.push_back("percu_tlb." + t);
    }
    const auto all = [](std::initializer_list<Paths> parts) {
        Paths out;
        for (const Paths &p : parts)
            out.insert(out.end(), p.begin(), p.end());
        std::sort(out.begin(), out.end());
        return out;
    };
    // Every row is emitted whether or not the feature is on, so one
    // design per hierarchy covers the others on it.
    EXPECT_EQ(snapshotPaths(MmuDesign::kIdeal), all({shared}));
    EXPECT_EQ(snapshotPaths(MmuDesign::kBaseline512),
              all({shared, iommu, percu,
                   {"tlb_breakdown.miss_l1_hit",
                    "tlb_breakdown.miss_l2_hit",
                    "tlb_breakdown.miss_l2_miss", "victima.stashes",
                    "victima.probes", "victima.hits"}}));
    EXPECT_EQ(snapshotPaths(MmuDesign::kVcOpt),
              all({shared, iommu,
                   {"fbt.bt_lookups", "fbt.ft_lookups", "fbt.ft_hits",
                    "fbt.capacity_evictions", "fbt.shootdowns",
                    "fbt.valid_pages", "synonym.replays",
                    "synonym.remap.lookups", "synonym.remap.hits",
                    "synonym.remap.drops", "vc.rw_faults", "vc.fbt_purges",
                    "vc.l1_flushes", "vc.translation_merges",
                    "vc.probe_lines_filtered", "vc.dropped_fills"}}));
    EXPECT_EQ(snapshotPaths(MmuDesign::kL1Vc32),
              all({shared, iommu, percu,
                   {"synonym.replays", "l1vc.registry_lines"}}));
}

TEST(Designs, ShootdownBoundaryEmptiesEveryTranslationCache)
{
    for (const MmuDesign d : {MmuDesign::kBaseline512, MmuDesign::kL1Vc32,
                              MmuDesign::kVcOpt}) {
        SCOPED_TRACE(designName(d));
        SimContext ctx;
        PhysMem pm(std::uint64_t{1} << 30);
        Vm vm(pm);
        Dram dram(ctx, {});
        SystemUnderTest sut(ctx, configFor(d), vm, dram, d);
        const Asid asid = vm.createProcess();
        constexpr unsigned kPages = 4;
        const Vpn first = pageOf(vm.mmapAnon(asid, kPages * kPageSize));
        for (Vpn v = first; v < first + kPages; ++v) {
            sut.system().access(0, asid, pageBase(v), false, [] {});
            ctx.eq.run();
        }
        Iommu &io = *sut.iommu();
        PageWalkCache &pwc = io.ptw().pwc();
        ASSERT_GT(pwc.hits(), 0u); // later walks reused upper levels

        sut.system().applyBoundary(BoundaryPolicy::shootdown());
        PerCuTlbs *tlbs = sut.system().perCuTlbs();
        for (Vpn v = first; v < first + kPages; ++v) {
            EXPECT_FALSE(io.tlb().present(asid, v));
            if (tlbs) {
                EXPECT_FALSE((*tlbs)[0].present(asid, v));
            }
        }
        // Walking the first page again finds no PTE line cached.
        const std::uint64_t lookups = pwc.accesses();
        const std::uint64_t hits = pwc.hits();
        bool answered = false;
        sut.system().access(0, asid, pageBase(first), false,
                            [&answered] { answered = true; });
        ctx.eq.run();
        ASSERT_TRUE(answered);
        EXPECT_GT(pwc.accesses(), lookups);
        EXPECT_EQ(pwc.hits(), hits);
    }
}

TEST(Designs, EveryCounterPathIsInSomeDesignsSnapshot)
{
    // A mistyped path would read 0 in every result; several of these
    // counters are 0 in every checked-in golden, so only this catches
    // it.
    std::set<std::string> emitted;
    for (const DesignRow &row : kDesignRows)
        for (std::string &p : snapshotPaths(row.design))
            emitted.insert(std::move(p));
    for (const auto &[field, path] : kCounterPaths)
        EXPECT_EQ(emitted.count(std::string(path)), 1u)
            << field << " reads " << path;
}

TEST(Designs, CounterPathsNameEveryCountField)
{
    std::set<std::string> fields;
    RunResult r;
    forEachResultField(
        [&](const char *name, unsigned flags, auto &v) {
            using T = std::remove_reference_t<decltype(v)>;
            if (std::is_same_v<T, std::uint64_t> && !(flags & kFieldTenant))
                fields.insert(name);
        },
        r);
    KernelStats k;
    forEachKernelStat(
        [&](const char *name, std::uint64_t &) { fields.insert(name); },
        k);
    std::set<std::string> named;
    for (const auto &[field, path] : kCounterPaths)
        named.insert(std::string(field));
    EXPECT_EQ(named, fields);
}

// ---------------------------------------------------------------
// Warp scheduler policies
// ---------------------------------------------------------------

/** Memory interface recording the issuing order of requests. */
class OrderLog final : public GpuMemInterface
{
  public:
    explicit OrderLog(SimContext &ctx) : ctx_(ctx) {}

    void
    access(unsigned, Asid, Vaddr line_va, bool,
           Callback done) override
    {
        order.push_back(line_va);
        ctx_.eq.scheduleIn(5, std::move(done));
    }

    std::vector<Vaddr> order;

  private:
    SimContext &ctx_;
};

TEST(WarpSched, GtoPrefersOneWarpUntilItStalls)
{
    GpuParams p;
    p.num_cus = 1;
    p.max_resident_warps = 2;
    p.sched = WarpSchedPolicy::kGreedyThenOldest;
    SimContext ctx;
    OrderLog mem(ctx);
    Gpu gpu(ctx, p, mem);

    // Two warps, each: several compute ops then one load.  Under GTO
    // warp 0 runs all its computes before warp 1 issues anything.
    KernelLaunch k;
    for (unsigned w = 0; w < 2; ++w) {
        WarpBuilder insts;
        for (int i = 0; i < 3; ++i)
            insts.add(WarpInst::compute(1));
        insts.load({Vaddr(0x1000 * (w + 1))});
        k.warps.push_back(
            std::make_unique<VectorWarpStream>(insts.finish()));
    }
    bool done = false;
    gpu.launch(std::move(k), [&] { done = true; });
    ctx.eq.run();
    ASSERT_TRUE(done);
    ASSERT_EQ(mem.order.size(), 2u);
    // Warp 0's load issues before warp 1's (greedy kept warp 0 going).
    EXPECT_EQ(mem.order[0], 0x1000u);
}

TEST(WarpSched, BothPoliciesCompleteIdenticalWork)
{
    for (const auto pol : {WarpSchedPolicy::kRoundRobin,
                           WarpSchedPolicy::kGreedyThenOldest}) {
        GpuParams p;
        p.num_cus = 2;
        p.max_resident_warps = 4;
        p.sched = pol;
        SimContext ctx;
        OrderLog mem(ctx);
        Gpu gpu(ctx, p, mem);
        KernelLaunch k;
        for (unsigned w = 0; w < 12; ++w) {
            WarpBuilder insts;
            insts.load({Vaddr(w) * kPageSize});
            insts.add(WarpInst::compute(4));
            insts.store({Vaddr(w) * kPageSize + 64});
            k.warps.push_back(
                std::make_unique<VectorWarpStream>(insts.finish()));
        }
        bool done = false;
        gpu.launch(std::move(k), [&] { done = true; });
        ctx.eq.run();
        EXPECT_TRUE(done);
        EXPECT_EQ(mem.order.size(), 24u);
    }
}

} // namespace
} // namespace gvc
