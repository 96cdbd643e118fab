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

    if (BaselineMmuSystem *b = sut.baseline()) {
        s.tlb_accesses = b->tlbAccesses();
        s.tlb_misses = b->tlbMisses();
        for (unsigned cu = 0; cu < gpu.numCus(); ++cu) {
            s.l1_accesses += b->caches().l1(cu).accesses();
            s.l1_hits += b->caches().l1(cu).hits();
        }
        s.l2_accesses = b->caches().l2().accesses();
        s.l2_hits = b->caches().l2().hits();
    } else if (VirtualCacheSystem *v = sut.vc()) {
        for (unsigned cu = 0; cu < gpu.numCus(); ++cu) {
            s.l1_accesses += v->l1(cu).accesses();
            s.l1_hits += v->l1(cu).hits();
        }
        s.l2_accesses = v->l2().accesses();
        s.l2_hits = v->l2().hits();
        s.fbt_lookups = v->fbt().btLookups() + v->fbt().ftLookups();
        s.synonym_replays = v->synonymReplays();
    } else if (L1OnlyVcSystem *l = sut.l1vc()) {
        for (unsigned cu = 0; cu < gpu.numCus(); ++cu) {
            s.l1_accesses += l->l1(cu).accesses();
            s.l1_hits += l->l1(cu).hits();
            s.tlb_accesses += l->perCuTlb(cu).accesses();
            s.tlb_misses += l->perCuTlb(cu).misses();
        }
        s.l2_accesses = l->caches().l2().accesses();
        s.l2_hits = l->caches().l2().hits();
        s.synonym_replays = l->synonymReplays();
    } else if (IdealMmuSystem *i = sut.ideal()) {
        for (unsigned cu = 0; cu < gpu.numCus(); ++cu) {
            s.l1_accesses += i->caches().l1(cu).accesses();
            s.l1_hits += i->caches().l1(cu).hits();
        }
        s.l2_accesses = i->caches().l2().accesses();
        s.l2_hits = i->caches().l2().hits();
    }
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
