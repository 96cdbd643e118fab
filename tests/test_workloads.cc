/**
 * @file
 * Tests for the workload substrate: graph generation, and for every
 * workload — mapped addresses only, determinism, non-empty kernels,
 * and the divergence characteristics the paper relies on.
 */

#include <gtest/gtest.h>

#include <set>

#include "gpu/coalescer.hh"
#include "workloads/graph.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/registry.hh"

namespace gvc
{
namespace
{

TEST(Graph, RmatHasRequestedShape)
{
    Rng rng(1);
    const auto g = makeRmatGraph(rng, 1024, 8192);
    EXPECT_EQ(g.num_vertices, 1024u);
    EXPECT_EQ(g.row_ptr.size(), 1025u);
    EXPECT_LE(g.numEdges(), 8192u);
    EXPECT_GT(g.numEdges(), 6000u); // only self-loops are dropped
    EXPECT_EQ(g.row_ptr.back(), g.numEdges());
    for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
        EXPECT_LE(g.row_ptr[v], g.row_ptr[v + 1]);
        for (std::uint32_t p = g.row_ptr[v]; p < g.row_ptr[v + 1]; ++p)
            ASSERT_LT(g.col[p], g.num_vertices);
    }
}

TEST(Graph, RmatIsSkewed)
{
    Rng rng(2);
    const auto g = makeRmatGraph(rng, 4096, 32768);
    std::uint32_t max_deg = 0;
    for (std::uint32_t v = 0; v < g.num_vertices; ++v)
        max_deg = std::max(max_deg, g.degree(v));
    const double avg = double(g.numEdges()) / g.num_vertices;
    EXPECT_GT(max_deg, 10 * avg); // heavy tail
}

TEST(Graph, UniformIsNotSkewed)
{
    Rng rng(3);
    const auto g = makeUniformGraph(rng, 4096, 32768);
    std::uint32_t max_deg = 0;
    for (std::uint32_t v = 0; v < g.num_vertices; ++v)
        max_deg = std::max(max_deg, g.degree(v));
    EXPECT_LT(max_deg, 40u);
}

TEST(Graph, GridGraphDegreesAreAtMostFour)
{
    const auto g = makeGridGraph(16);
    EXPECT_EQ(g.num_vertices, 256u);
    for (std::uint32_t v = 0; v < g.num_vertices; ++v)
        EXPECT_LE(g.degree(v), 4u);
}

TEST(KernelBuilder, DistributesChunksRoundRobin)
{
    std::vector<std::pair<unsigned, std::uint64_t>> calls;
    forEachWarpChunk(100, 3, [&](unsigned w, std::uint64_t first,
                                 unsigned lanes) {
        calls.emplace_back(w, first);
        EXPECT_LE(lanes, kWarpLanes);
    });
    ASSERT_EQ(calls.size(), 4u); // ceil(100/32)
    EXPECT_EQ(calls[0].first, 0u);
    EXPECT_EQ(calls[1].first, 1u);
    EXPECT_EQ(calls[3].first, 0u);
    EXPECT_EQ(calls[3].second, 96u);
}

TEST(KernelBuilder, BlockedMappingKeepsChunksTogether)
{
    std::vector<unsigned> warps;
    forEachWarpChunkBlocked(32 * 8, 4, 4,
                            [&](unsigned w, std::uint64_t, unsigned) {
                                warps.push_back(w);
                            });
    EXPECT_EQ(warps, (std::vector<unsigned>{0, 0, 0, 0, 1, 1, 1, 1}));
}

TEST(KernelBuilder, TakeSkipsEmptyWarps)
{
    KernelBuilder kb(0, 8);
    kb.compute(2, 1);
    kb.compute(5, 1);
    const auto launch = kb.take();
    EXPECT_EQ(launch.warps.size(), 2u);
}

/** Per-workload validation, parameterized over all fifteen. */
class WorkloadSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSuite, GeneratesOnlyMappedAddresses)
{
    WorkloadParams params;
    params.scale = 0.1;
    auto wl = makeWorkload(GetParam(), params);
    PhysMem pm(std::uint64_t{4} << 30);
    Vm vm(pm);
    const Asid asid = vm.createProcess();
    wl->setup(vm, asid);

    std::uint64_t mem_insts = 0, lanes = 0, scratch = 0;
    for (auto &launch : wl->kernels()) {
        EXPECT_EQ(launch.asid, asid);
        for (auto &stream : launch.warps) {
            while (const WarpInst *inst = stream->next()) {
                if (inst->isGlobalMem()) {
                    ++mem_insts;
                    ASSERT_FALSE(inst->lane_addrs.empty());
                    ASSERT_LE(inst->lane_addrs.size(), kWarpLanes);
                    lanes += inst->lane_addrs.size();
                    for (const Vaddr va : inst->lane_addrs)
                        ASSERT_TRUE(vm.translate(asid, va).has_value())
                            << GetParam() << " touches unmapped VA "
                            << std::hex << va;
                } else if (inst->op == WarpOp::kScratchLoad ||
                           inst->op == WarpOp::kScratchStore) {
                    ++scratch;
                }
            }
        }
    }
    EXPECT_GT(mem_insts, 0u) << GetParam();
    EXPECT_GT(lanes, 0u);
}

TEST_P(WorkloadSuite, DeterministicForSameSeed)
{
    auto trace_of = [&](std::uint64_t seed) {
        WorkloadParams params;
        params.scale = 0.05;
        params.seed = seed;
        auto wl = makeWorkload(GetParam(), params);
        PhysMem pm(std::uint64_t{4} << 30);
        Vm vm(pm);
        const Asid asid = vm.createProcess();
        wl->setup(vm, asid);
        std::uint64_t hash = 14695981039346656037ull;
        for (auto &launch : wl->kernels()) {
            for (auto &stream : launch.warps) {
                while (const WarpInst *inst = stream->next()) {
                    hash ^= std::uint64_t(inst->op);
                    hash *= 1099511628211ull;
                    for (const Vaddr va : inst->lane_addrs) {
                        hash ^= va;
                        hash *= 1099511628211ull;
                    }
                }
            }
        }
        return hash;
    };
    EXPECT_EQ(trace_of(7), trace_of(7));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSuite,
                         ::testing::ValuesIn(allWorkloadNames()));
INSTANTIATE_TEST_SUITE_P(ExtraWorkloads, WorkloadSuite,
                         ::testing::ValuesIn(extraWorkloadNames()));

TEST(WorkloadRegistry, ListsFifteenWorkloadsPlusExtras)
{
    EXPECT_EQ(allWorkloadNames().size(), 15u);
    EXPECT_EQ(highBandwidthWorkloadNames().size(), 10u);
    EXPECT_EQ(extraWorkloadNames().size(), 2u);
}

TEST(WorkloadRegistryDeath, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)makeWorkload("nonsense", {}), "unknown workload");
}

TEST(WorkloadDivergence, FwIsDivergentAndFwBlockIsNot)
{
    auto divergence_of = [&](const std::string &name) {
        WorkloadParams params;
        params.scale = 0.25;
        auto wl = makeWorkload(name, params);
        PhysMem pm(std::uint64_t{4} << 30);
        Vm vm(pm);
        const Asid asid = vm.createProcess();
        wl->setup(vm, asid);
        Coalescer c;
        for (auto &launch : wl->kernels()) {
            for (auto &stream : launch.warps) {
                while (const WarpInst *inst = stream->next())
                    if (inst->isGlobalMem())
                        c.coalesce(inst->lane_addrs);
            }
        }
        return double(c.linesEmitted()) / double(c.instructions());
    };
    const double fw = divergence_of("fw");
    const double fw_block = divergence_of("fw_block");
    EXPECT_GT(fw, 8.0);        // paper: fw ~9.3 accesses per instruction
    EXPECT_LT(fw_block, 2.0);  // blocked variant is coalesced
}

} // namespace
} // namespace gvc
