/**
 * @file
 * Tests for the design rows (Table 2 configurations, labels and CLI
 * spellings), the SystemUnderTest wrapper and the statistics it
 * registers, plus warp-scheduler policy behaviour.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
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

/** Every "name = value" line of @p reg's dump, names in order. */
std::vector<std::string>
statPaths(const StatRegistry &reg)
{
    std::ostringstream os;
    reg.dump(os);
    std::istringstream in(os.str());
    std::vector<std::string> paths;
    for (std::string line; std::getline(in, line);)
        paths.push_back(line.substr(0, line.find(" = ")));
    return paths;
}

TEST(Designs, RegistryPathsAndValuesMatchTheRunResult)
{
    const std::vector<std::string> iommu = {
        "iommu.accesses",       "iommu.walks",
        "iommu.faults",         "iommu.serialization_cycles",
        "iommu.tlb.hits",       "iommu.tlb.misses",
        "iommu.pwc.hit_ratio",  "iommu.ptw.mean_latency"};
    const auto with_iommu = [&](std::vector<std::string> tail) {
        std::vector<std::string> all = iommu;
        all.insert(all.end(), tail.begin(), tail.end());
        return all;
    };
    const std::vector<std::string> baseline = {
        "percu_tlb.accesses", "percu_tlb.misses", "l2.hit_ratio",
        "directory.probes"};
    std::vector<std::string> victima = baseline;
    victima.insert(victima.end(),
                   {"victima.stashes", "victima.probes", "victima.hits"});
    const struct
    {
        MmuDesign design;
        std::vector<std::string> paths;
    } cases[] = {
        {MmuDesign::kIdeal, {}},
        {MmuDesign::kBaseline512, with_iommu(baseline)},
        {MmuDesign::kBaseVictima, with_iommu(victima)},
        {MmuDesign::kVcOpt,
         with_iommu({"fbt.bt_lookups", "fbt.ft_hit_ratio",
                     "fbt.valid_pages", "fbt.capacity_evictions",
                     "vc.synonym_replays", "vc.rw_faults",
                     "vc.l1_flushes", "vc.translation_merges",
                     "vc.l2.hit_ratio", "directory.probes",
                     "vc.probe_lines_filtered"})},
        {MmuDesign::kL1Vc32,
         with_iommu({"l1vc.synonym_replays", "l1vc.registry_lines"})},
    };
    for (const auto &c : cases) {
        RunConfig cfg;
        cfg.design = c.design;
        cfg.workload.scale = 0.05;
        StatRegistry reg;
        std::vector<std::string> paths;
        std::map<std::string, double> value;
        const RunResult r = runWorkload(
            "bfs", cfg, [&](SystemUnderTest &sut, Gpu &, SimContext &) {
                sut.registerStats(reg);
                paths = statPaths(reg);
                for (const auto &p : paths)
                    value[p] = reg.lookup(p);
            });
        const char *label = designName(c.design);
        EXPECT_EQ(paths, c.paths) << label;
        const auto expect = [&](const char *path, double want) {
            if (value.count(path)) {
                EXPECT_DOUBLE_EQ(value[path], want) << label << " " << path;
            }
        };
        expect("iommu.accesses", double(r.iommu_accesses));
        expect("iommu.walks", double(r.page_walks));
        expect("percu_tlb.accesses", double(r.tlb_accesses));
        expect("percu_tlb.misses", double(r.tlb_misses));
        expect("l2.hit_ratio", r.l2_hit_ratio);
        expect("vc.l2.hit_ratio", r.l2_hit_ratio);
        expect("victima.stashes", double(r.victima_stashes));
        expect("victima.probes", double(r.victima_probes));
        expect("victima.hits", double(r.victima_hits));
        expect("fbt.valid_pages", double(r.fbt_valid_pages));
        expect("fbt.ft_hit_ratio", r.fbt_second_level_hit_ratio);
        expect("vc.synonym_replays", double(r.synonym_replays));
        expect("vc.rw_faults", double(r.rw_faults));
        expect("l1vc.synonym_replays", double(r.synonym_replays));
    }
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
        std::vector<WarpInst> insts;
        for (int i = 0; i < 3; ++i)
            insts.push_back(WarpInst::compute(1));
        insts.push_back(
            WarpInst::load({Vaddr(0x1000 * (w + 1))}));
        k.warps.push_back(
            std::make_unique<VectorWarpStream>(std::move(insts)));
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
            std::vector<WarpInst> insts;
            insts.push_back(WarpInst::load({Vaddr(w) * kPageSize}));
            insts.push_back(WarpInst::compute(4));
            insts.push_back(
                WarpInst::store({Vaddr(w) * kPageSize + 64}));
            k.warps.push_back(
                std::make_unique<VectorWarpStream>(std::move(insts)));
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
