/**
 * @file
 * Randomized stress and demand-paging tests for the virtual cache
 * hierarchy: long mixed sequences of loads/stores across processes,
 * synonyms, shootdowns, and coherence probes, with the structural
 * invariants checked at the end of every sequence.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "core/virtual_hierarchy.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

/** Parameterized over (seed, fbt_entries) to vary pressure. */
class VcStress : public ::testing::TestWithParam<
                     std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(VcStress, InvariantsSurviveRandomMixedTraffic)
{
    const auto [seed, fbt_entries] = GetParam();
    SimContext ctx(seed);
    PhysMem pm(std::uint64_t{2} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    SocConfig cfg;
    cfg.gpu.num_cus = 4;
    cfg.fbt.entries = fbt_entries;
    cfg.synonym_remap_entries = 64;
    VirtualCacheSystem vc(ctx, cfg, vm, dram);

    Rng rng(seed * 77 + 1);
    const Asid p0 = vm.createProcess();
    const Asid p1 = vm.createProcess();
    const Vaddr buf0 = vm.mmapAnon(p0, 256 * kPageSize);
    const Vaddr buf1 = vm.mmapAnon(p1, 256 * kPageSize);
    // Read-only region with a synonym alias in the same space.
    const Vaddr ro = vm.mmapAnon(p0, 32 * kPageSize, kPermRead);
    const Vaddr ro_alias =
        vm.alias(p0, p0, ro, 32 * kPageSize, kPermRead);

    unsigned outstanding = 0;
    for (int i = 0; i < 3000; ++i) {
        const auto op = rng.below(100);
        if (op < 80) {
            // Random access from a random CU.
            const bool p0_side = rng.chance(0.6);
            const Asid asid = p0_side ? p0 : p1;
            Vaddr va;
            bool store = rng.chance(0.3);
            const auto region = rng.below(10);
            if (!p0_side) {
                va = buf1 + rng.below(256) * kPageSize +
                     rng.below(kLinesPerPage) * kLineSize;
            } else if (region < 7) {
                va = buf0 + rng.below(256) * kPageSize +
                     rng.below(kLinesPerPage) * kLineSize;
            } else {
                // Read-only region, half the time via the alias.
                va = (rng.chance(0.5) ? ro : ro_alias) +
                     rng.below(32) * kPageSize +
                     rng.below(kLinesPerPage) * kLineSize;
                store = false;
            }
            ++outstanding;
            vc.access(unsigned(rng.below(4)), asid, va, store,
                      [&outstanding] { --outstanding; });
            if (rng.chance(0.2))
                ctx.eq.run();
        } else if (op < 90) {
            ctx.eq.run();
            // Shootdown of a random writable page.
            const Vaddr page = buf0 + rng.below(256) * kPageSize;
            vm.protect(p0, page, kPageSize,
                       kPermRead | kPermWrite);
        } else {
            ctx.eq.run();
            // Coherence probe to a random frame of buf1.
            const auto t =
                vm.translate(p1, buf1 + rng.below(256) * kPageSize);
            ASSERT_TRUE(t.has_value());
            vc.coherenceProbe(pageBase(t->ppn) +
                                  rng.below(kLinesPerPage) * kLineSize,
                              rng.chance(0.5));
        }
    }
    ctx.eq.run();
    EXPECT_EQ(outstanding, 0u);

    // Invariant 1: the FBT's BT/FT bijection holds.
    EXPECT_TRUE(vc.fbt().consistent());

    // Invariant 2: FBT inclusion — every L2-resident line's page has a
    // live leading entry whose bit-vector covers the line.
    vc.l2().forEachLine([&](const CacheLineInfo &info) {
        ASSERT_TRUE(
            vc.fbt().hasLeading(info.asid, pageOf(info.line_addr)));
        const auto t = vm.translate(info.asid, info.line_addr);
        ASSERT_TRUE(t.has_value());
        const auto r = vc.fbt().reverseLookup(
            t->ppn, lineInPage(info.line_addr));
        EXPECT_TRUE(r.present);
        EXPECT_TRUE(r.line_cached);
        EXPECT_EQ(r.asid, info.asid);
    });

    // Invariant 3: no duplicate physical lines under different names.
    std::map<Paddr, std::pair<Asid, Vaddr>> seen;
    bool duplicate = false;
    vc.l2().forEachLine([&](const CacheLineInfo &info) {
        const auto t = vm.translate(info.asid, info.line_addr);
        ASSERT_TRUE(t.has_value());
        const Paddr pa = pageBase(t->ppn) |
                         (info.line_addr & kPageMask & ~kLineMask);
        auto [it, fresh] =
            seen.emplace(pa, std::make_pair(info.asid,
                                            info.line_addr));
        if (!fresh)
            duplicate = true;
    });
    EXPECT_FALSE(duplicate)
        << "two virtual names cache the same physical line";

    // Invariant 4: read-only synonyms never produced RW faults.
    EXPECT_EQ(vc.rwFaults(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VcStress,
    ::testing::Values(std::make_tuple(1ull, 16384u),
                      std::make_tuple(2ull, 16384u),
                      std::make_tuple(3ull, 512u),
                      std::make_tuple(4ull, 128u),
                      std::make_tuple(5ull, 64u)));

TEST(VcDemandPaging, FaultFixerEnablesLazyMappings)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    SocConfig cfg;
    cfg.gpu.num_cus = 2;
    VirtualCacheSystem vc(ctx, cfg, vm, dram);
    const Asid asid = vm.createProcess();

    // CPU-style demand handler: map pages on first GPU touch.
    unsigned faults_fixed = 0;
    vc.iommu()->setFaultFixer([&](Asid a, Vpn vpn) {
        vm.pageTable(a).map(vpn, pm.allocFrame(),
                            kPermRead | kPermWrite);
        ++faults_fixed;
        return true;
    });

    // Touch completely unmapped addresses.
    const Vaddr lazy = 0x7000'0000;
    unsigned done = 0;
    for (int i = 0; i < 4; ++i)
        vc.access(0, asid, lazy + Vaddr(i) * kPageSize, false,
                  [&] { ++done; });
    ctx.eq.run();
    EXPECT_EQ(done, 4u);
    EXPECT_EQ(faults_fixed, 4u);
    EXPECT_TRUE(vc.l2().present(asid, lazy));
    EXPECT_EQ(vc.iommu()->faults(), 4u);
}

} // namespace
} // namespace gvc
