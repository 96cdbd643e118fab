/**
 * @file
 * Tests for smaller surfaces: the table printer, workload parameter
 * plumbing (graph kinds, scaling), and GPU-level aggregate statistics.
 */

#include <gtest/gtest.h>

#include "harness/table.hh"
#include "mmu/injection.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/registry.hh"

namespace gvc
{
namespace
{

TEST(TextTable, FormatsNumbers)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
    EXPECT_EQ(TextTable::pct(0.5), "50.0%");
    EXPECT_EQ(TextTable::pct(1.234, 0), "123%");
}

TEST(TextTable, PrintsWithoutCrashing)
{
    TextTable t({"a", "long header", "c"});
    t.addRow({"1", "2", "3"});
    t.addRow({"much longer cell", "x"});
    t.print(); // visual output; just must not crash or misindex
}

TEST(WorkloadParams, GraphKindChangesTheTrace)
{
    auto edges_of = [&](GraphKind kind) {
        WorkloadParams p;
        p.scale = 0.05;
        p.graph = kind;
        auto wl = makeWorkload("pagerank", p);
        PhysMem pm(std::uint64_t{2} << 30);
        Vm vm(pm);
        const Asid asid = vm.createProcess();
        wl->setup(vm, asid);
        std::uint64_t lanes = 0;
        for (auto &launch : wl->kernels())
            for (auto &stream : launch.warps) {
                while (const WarpInst *inst = stream->next())
                    lanes += inst->lane_addrs.size();
            }
        return lanes;
    };
    const auto rmat = edges_of(GraphKind::kRmat);
    const auto grid = edges_of(GraphKind::kGrid);
    EXPECT_GT(rmat, 0u);
    EXPECT_GT(grid, 0u);
    EXPECT_NE(rmat, grid);
}

TEST(WorkloadParams, ScaleChangesProblemSize)
{
    auto insts_of = [&](double scale) {
        WorkloadParams p;
        p.scale = scale;
        auto wl = makeWorkload("kmeans", p);
        PhysMem pm(std::uint64_t{2} << 30);
        Vm vm(pm);
        const Asid asid = vm.createProcess();
        wl->setup(vm, asid);
        std::uint64_t n = 0;
        for (auto &launch : wl->kernels())
            for (auto &stream : launch.warps) {
                while (stream->next())
                    ++n;
            }
        return n;
    };
    EXPECT_GT(insts_of(0.2), insts_of(0.1));
}

TEST(GpuAggregates, SumAcrossCus)
{
    struct NullMem final : GpuMemInterface
    {
        explicit NullMem(SimContext &c) : ctx(c) {}
        void
        access(unsigned, Asid, Vaddr, bool,
               Callback done) override
        {
            ctx.eq.scheduleIn(1, std::move(done));
        }
        SimContext &ctx;
    };

    SimContext ctx;
    NullMem mem(ctx);
    GpuParams p;
    p.num_cus = 4;
    Gpu gpu(ctx, p, mem);
    KernelLaunch k;
    for (int w = 0; w < 8; ++w) {
        WarpBuilder insts;
        insts.load({Vaddr(w) * kPageSize});
        insts.add(WarpInst::compute(2));
        k.warps.push_back(
            std::make_unique<VectorWarpStream>(insts.finish()));
    }
    bool done = false;
    gpu.launch(std::move(k), [&] { done = true; });
    ctx.eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(gpu.numCus(), 4u);
    EXPECT_EQ(snapshotOf(gpu).get("mem_instructions"), 8u);
    EXPECT_EQ(snapshotOf(gpu).get("instructions"), 16u);
    EXPECT_EQ(snapshotOf(gpu).get("coalesced_lines"), 8u);
    EXPECT_EQ(snapshotOf(gpu).get("scratch_instructions"), 0u);
}

TEST(InjectionPorts, DisabledIsTransparent)
{
    SimContext ctx;
    CuInjectionPorts ports(ctx, 4, 0.0);
    EXPECT_FALSE(ports.enabled());
    int ran = 0;
    for (int i = 0; i < 40; ++i)
        ports.inject(0, [&] { ++ran; });
    EXPECT_EQ(ran, 40); // immediate, same tick, no events
    EXPECT_TRUE(ctx.eq.empty());
}

TEST(InjectionPorts, LimitsPerCuRate)
{
    SimContext ctx;
    CuInjectionPorts ports(ctx, 2, 1.0);
    ASSERT_TRUE(ports.enabled());
    std::vector<Tick> times;
    for (int i = 0; i < 8; ++i)
        ports.inject(0, [&] { times.push_back(ctx.now()); });
    // A different CU's port is independent.
    Tick other = ~Tick{0};
    ports.inject(1, [&] { other = ctx.now(); });
    ctx.eq.run();
    ASSERT_EQ(times.size(), 8u);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(times[std::size_t(i)] - times[std::size_t(i) - 1], 1u);
    EXPECT_EQ(other, 0u);
    EXPECT_GT(ports.meanWait(), 0.0);
}

TEST(WorkloadExtras, SsspIsHighBandwidthSradIsNot)
{
    WorkloadParams p;
    p.scale = 0.05;
    EXPECT_TRUE(makeWorkload("sssp", p)->highBandwidth());
    EXPECT_FALSE(makeWorkload("srad", p)->highBandwidth());
}

} // namespace
} // namespace gvc
