#include "harness/scenario.hh"

namespace gvc
{

KernelStats
collectKernelStats(SystemUnderTest &sut, Gpu &gpu, Dram &dram,
                   SimContext &ctx)
{
    KernelStats s;
    s.exec_ticks = ctx.now();
    s.instructions = gpu.totalInstructions();
    s.mem_instructions = gpu.totalMemInstructions();
    s.dram_accesses = dram.accesses();
    s.dram_bytes = dram.bytesMoved();
    if (Iommu *io = sut.iommu()) {
        s.iommu_accesses = io->accesses();
        s.page_walks = io->walks();
    }

    MmuSystem &sys = sut.system();
    if (const PerCuTlbs *tlbs = sys.perCuTlbs()) {
        s.tlb_accesses = tlbs->sum(&Tlb::accesses);
        s.tlb_misses = tlbs->sum(&Tlb::misses);
    }
    for (unsigned cu = 0; cu < gpu.numCus(); ++cu) {
        s.l1_accesses += sys.l1(cu).accesses();
        s.l1_hits += sys.l1(cu).hits();
    }
    s.l2_accesses = sys.l2().accesses();
    s.l2_hits = sys.l2().hits();
    s.synonym_replays = sys.synonymReplays();
    // The FBT is the one counter source only the full VC has.
    if (VirtualCacheSystem *v = sut.vc())
        s.fbt_lookups = v->fbt().btLookups() + v->fbt().ftLookups();
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
