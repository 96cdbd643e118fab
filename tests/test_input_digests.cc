/**
 * @file
 * Pins of the simulator's inputs: the trace digest of every registered
 * workload's capture, of one graph workload on each graph kind, and
 * FNV-1a digests of the graph generators' CSR arrays.  Generation and
 * capture may be rewritten for speed, but every input must stay the
 * same bit for bit; a change that moves one of these values changes
 * what every run simulates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/bytes.hh"
#include "trace/kernel_source.hh"
#include "trace/trace.hh"
#include "workloads/graph.hh"
#include "workloads/registry.hh"

namespace gvc
{
namespace
{

constexpr std::uint64_t kSeed = 24301;

WorkloadParams
pinParams(GraphKind graph = GraphKind::kRmat)
{
    WorkloadParams p;
    p.scale = 0.05;
    p.seed = kSeed;
    p.graph = graph;
    return p;
}

std::uint64_t
captureDigest(const std::string &workload, const WorkloadParams &params)
{
    return trace::traceDigest(trace::captureWorkloadTrace(workload, params));
}

struct WorkloadPin
{
    const char *workload;
    std::uint64_t digest;
};

/** traceDigest of each registered workload at scale 0.05, seed 24301. */
constexpr WorkloadPin kWorkloadPins[] = {
    {"bc", 0x2cc633c42c85cd93ull},
    {"color_maxmin", 0xa7668bbfa46906f6ull},
    {"color_max", 0x0decfe6a869dca9cull},
    {"fw", 0x87ebf9b01150e105ull},
    {"fw_block", 0xb64e38272be396a8ull},
    {"mis", 0xb191f94260739ceaull},
    {"pagerank", 0xe5700daec152fcb2ull},
    {"pagerank_spmv", 0xaeafa1658494c400ull},
    {"kmeans", 0x0a51ad72e25db199ull},
    {"backprop", 0x4ecde9c1863a1bd4ull},
    {"bfs", 0xc9ee46d7ab13c259ull},
    {"hotspot", 0xe58b8b3a0319d771ull},
    {"lud", 0xba1329be874b46baull},
    {"nw", 0x8a8331d10c454a64ull},
    {"pathfinder", 0xac62672a3ba557daull},
    {"sssp", 0x4f73e5959d11e966ull},
    {"srad", 0x47665212eda86450ull},
};

TEST(InputDigests, EveryRegisteredWorkloadIsPinned)
{
    std::size_t registered = 0;
    for (const auto *names :
         {&allWorkloadNames(), &extraWorkloadNames()}) {
        for (const std::string &name : *names) {
            ++registered;
            bool pinned = false;
            for (const WorkloadPin &pin : kWorkloadPins)
                pinned = pinned || name == pin.workload;
            EXPECT_TRUE(pinned) << name << " has no capture pin";
        }
    }
    EXPECT_EQ(registered, std::size(kWorkloadPins));
}

TEST(InputDigests, WorkloadCapturesAreUnchanged)
{
    for (const WorkloadPin &pin : kWorkloadPins) {
        EXPECT_EQ(captureDigest(pin.workload, pinParams()), pin.digest)
            << pin.workload;
    }
}

TEST(InputDigests, GraphKindCapturesAreUnchanged)
{
    struct KindPin
    {
        GraphKind graph;
        std::uint64_t digest;
    };
    constexpr KindPin kPins[] = {
        {GraphKind::kRmat, 0xe5700daec152fcb2ull},
        {GraphKind::kUniform, 0x6c43d30e4c8215f9ull},
        {GraphKind::kGrid, 0xbd7f7b48dbf14f3full},
    };
    for (const KindPin &pin : kPins) {
        EXPECT_EQ(captureDigest("pagerank", pinParams(pin.graph)),
                  pin.digest)
            << "graph kind " << int(pin.graph);
    }
}

/** Digests of a generated graph's arrays and of the draw after it. */
struct GraphPin
{
    std::uint64_t row_ptr;
    std::uint64_t col;
    std::uint64_t next_draw;
};

void
expectGraph(const CsrGraph &g, Rng &rng, const GraphPin &pin)
{
    EXPECT_EQ(fnv1a(g.row_ptr.data(),
                    g.row_ptr.size() * sizeof(g.row_ptr[0])),
              pin.row_ptr);
    EXPECT_EQ(fnv1a(g.col.data(), g.col.size() * sizeof(g.col[0])),
              pin.col);
    // The generator consumed exactly the draws it always did.
    EXPECT_EQ(rng(), pin.next_draw);
}

TEST(InputDigests, RmatGraphIsUnchanged)
{
    Rng rng(kSeed);
    const CsrGraph g = makeRmatGraph(rng, 32768, 131072);
    expectGraph(g, rng,
                {0xe33f124caed3e4daull, 0xfb765a7eee012d16ull,
                 0xb56a5dbc319ed5d0ull});
}

TEST(InputDigests, RmatGraphWithOtherQuadrantsIsUnchanged)
{
    Rng rng(kSeed + 1);
    const CsrGraph g = makeRmatGraph(rng, 4096, 40000, 0.45, 0.25, 0.15);
    expectGraph(g, rng,
                {0x4d3e4e268e5e51d8ull, 0xea6b44eec7e3d44full,
                 0xe67e78c123f50d17ull});
}

TEST(InputDigests, UniformGraphIsUnchanged)
{
    Rng rng(kSeed + 2);
    const CsrGraph g = makeUniformGraph(rng, 5000, 40000);
    expectGraph(g, rng,
                {0x0ce79181712eb865ull, 0x4319773357aab258ull,
                 0x656b70cbe7345814ull});
}

} // namespace
} // namespace gvc
