#include "harness/scenario.hh"

namespace gvc
{

StatSnapshot
snapshotStats(SystemUnderTest &sut, Gpu &gpu, SimContext &ctx)
{
    StatSink s;
    s("sim.ticks", ctx.now());
    s.scope("gpu", gpu);
    s.scope("dram", sut.dram());
    sut.system().stats(s);
    return std::move(s).snapshot();
}

KernelStats
collectKernelStats(SystemUnderTest &sut, Gpu &gpu, SimContext &ctx)
{
    const StatSnapshot snap = snapshotStats(sut, gpu, ctx);
    KernelStats s;
    forEachKernelStat(
        [&snap](const char *name, std::uint64_t &v) {
            readCounter(snap, name, v);
        },
        s);
    return s;
}

KernelStats
kernelDelta(const KernelStats &cur, const KernelStats &prev)
{
    KernelStats d;
    forEachKernelStat(
        [](const char *, std::uint64_t &out, std::uint64_t c,
           std::uint64_t p) { out = c - p; },
        d, cur, prev);
    return d;
}

KernelStats
kernelSum(const KernelStats &a, const KernelStats &b)
{
    KernelStats s;
    forEachKernelStat(
        [](const char *, std::uint64_t &out, std::uint64_t x,
           std::uint64_t y) { out = x + y; },
        s, a, b);
    return s;
}

} // namespace gvc
