/**
 * @file
 * Unit tests for the compute-unit timing model and the GPU dispatcher,
 * driven through a controllable fake memory interface.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "gpu/gpu.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

/** Memory interface with a fixed latency and full request logging. */
class FakeMem final : public GpuMemInterface
{
  public:
    explicit FakeMem(SimContext &ctx, Tick latency = 20)
        : ctx_(ctx), latency_(latency)
    {
    }

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        requests.push_back({cu_id, asid, line_va, is_store, ctx_.now()});
        ctx_.eq.scheduleIn(latency_, std::move(done));
    }

    struct Req
    {
        unsigned cu;
        Asid asid;
        Vaddr line;
        bool store;
        Tick at;
    };

    std::vector<Req> requests;

  private:
    SimContext &ctx_;
    Tick latency_;
};

std::vector<Vaddr>
lanesAt(Vaddr base, unsigned n)
{
    std::vector<Vaddr> v;
    for (unsigned l = 0; l < n; ++l)
        v.push_back(base + l * 4);
    return v;
}

class CuTest : public ::testing::Test
{
  protected:
    CuTest() : mem_(ctx_), gpu_(ctx_, params(), mem_) {}

    static GpuParams
    params()
    {
        GpuParams p;
        p.num_cus = 2;
        p.max_resident_warps = 4;
        return p;
    }

    /** Run one kernel to completion; returns end tick. */
    Tick
    run(KernelLaunch launch)
    {
        bool done = false;
        gpu_.launch(std::move(launch), [&] { done = true; });
        ctx_.eq.run();
        EXPECT_TRUE(done);
        return ctx_.now();
    }

    SimContext ctx_;
    FakeMem mem_;
    Gpu gpu_;
};

TEST_F(CuTest, EmptyKernelCompletesImmediately)
{
    KernelLaunch k;
    k.asid = 0;
    run(std::move(k));
    EXPECT_EQ(mem_.requests.size(), 0u);
}

// Regression: a zero-warp launch used to go through the CU wake/drain
// machinery (consuming events and advancing the clock) and relied on
// every CU reporting idle.  It must now complete synchronously inside
// launch(), leave the clock untouched, and not poison later launches.
TEST_F(CuTest, ZeroWarpKernelIsSynchronousAndClockNeutral)
{
    bool done = false;
    gpu_.launch(KernelLaunch{}, [&] { done = true; });
    EXPECT_TRUE(done); // completed inside launch(), no events needed
    EXPECT_EQ(ctx_.now(), 0u);
    ctx_.eq.run();
    EXPECT_EQ(ctx_.now(), 0u); // nothing was scheduled
    EXPECT_EQ(gpu_.kernelsLaunched(), 1u);

    // A real launch afterwards still works (no stuck completion state).
    KernelLaunch k;
    WarpBuilder insts;
    insts.add(WarpInst::compute(3));
    k.warps.push_back(
        std::make_unique<VectorWarpStream>(insts.finish()));
    run(std::move(k));
    EXPECT_EQ(gpu_.kernelsLaunched(), 2u);
    EXPECT_GT(ctx_.now(), 0u);
}

TEST_F(CuTest, LoadIsCoalescedAndBlocksWarp)
{
    KernelLaunch k;
    WarpBuilder insts;
    insts.load(lanesAt(0x1000, 32));
    insts.add(WarpInst::compute(1));
    k.warps.push_back(
        std::make_unique<VectorWarpStream>(insts.finish()));
    run(std::move(k));
    ASSERT_EQ(mem_.requests.size(), 1u);
    EXPECT_EQ(mem_.requests[0].line, 0x1000u);
    EXPECT_FALSE(mem_.requests[0].store);
}

TEST_F(CuTest, DivergentLoadEmitsOneRequestPerLine)
{
    KernelLaunch k;
    std::vector<Vaddr> lanes;
    for (unsigned l = 0; l < 16; ++l)
        lanes.push_back(std::uint64_t(l) * kPageSize);
    k.warps.push_back(std::make_unique<VectorWarpStream>(
        WarpBuilder().load(lanes).finish()));
    run(std::move(k));
    EXPECT_EQ(mem_.requests.size(), 16u);
}

TEST_F(CuTest, StoresDoNotBlockTheWarp)
{
    // A warp issuing N stores then one compute finishes long before
    // N*latency (stores are fire-and-forget).
    KernelLaunch k;
    WarpBuilder insts;
    for (int i = 0; i < 8; ++i)
        insts.store({Vaddr(0x1000 + i * kLineSize)});
    k.warps.push_back(
        std::make_unique<VectorWarpStream>(insts.finish()));
    const Tick end = run(std::move(k));
    EXPECT_LT(end, 8 * 20u);
    EXPECT_EQ(mem_.requests.size(), 8u);
}

TEST_F(CuTest, WarpsHideEachOthersLatency)
{
    // 1 warp with 4 dependent loads ~ 4*latency; 4 warps with one load
    // each overlap.
    auto make_kernel = [&](unsigned warps, unsigned loads_per_warp) {
        KernelLaunch k;
        for (unsigned w = 0; w < warps; ++w) {
            WarpBuilder insts;
            for (unsigned i = 0; i < loads_per_warp; ++i)
                insts.load({Vaddr((w * 100 + i) * kLineSize)});
            k.warps.push_back(std::make_unique<VectorWarpStream>(
                insts.finish()));
        }
        return k;
    };
    const Tick serial = run(make_kernel(1, 4));
    SimContext ctx2;
    FakeMem mem2(ctx2);
    Gpu gpu2(ctx2, params(), mem2);
    bool done = false;
    gpu2.launch(make_kernel(4, 1), [&] { done = true; });
    ctx2.eq.run();
    EXPECT_TRUE(done);
    EXPECT_LT(ctx2.now(), serial);
}

TEST_F(CuTest, ComputeOccupiesWarpForItsCycles)
{
    KernelLaunch k;
    k.warps.push_back(std::make_unique<VectorWarpStream>(
        WarpBuilder().add(WarpInst::compute(500)).finish()));
    const Tick end = run(std::move(k));
    EXPECT_GE(end, 500u);
}

TEST_F(CuTest, ScratchpadGeneratesNoGlobalTraffic)
{
    KernelLaunch k;
    k.warps.push_back(std::make_unique<VectorWarpStream>(
        WarpBuilder()
            .add(WarpInst::scratch(false))
            .add(WarpInst::scratch(true)).finish()));
    run(std::move(k));
    EXPECT_EQ(mem_.requests.size(), 0u);
}

TEST_F(CuTest, BarrierSynchronizesWarps)
{
    // Warp A: long compute, then barrier, then a load.
    // Warp B: barrier, then a load.  B's load must not issue before A
    // reaches the barrier.  Both warps land on CU 0 (indices 0 and 2
    // with 2 CUs would split; use explicit same-CU placement via 2
    // warps at even indices).
    KernelLaunch k;
    k.warps.push_back(std::make_unique<VectorWarpStream>(
        WarpBuilder()
            .add(WarpInst::compute(300))
            .add(WarpInst::barrier())
            .load({0x10000}).finish()));
    k.warps.push_back(std::make_unique<VectorWarpStream>(
        WarpBuilder()
            .add(WarpInst::compute(300))
            .add(WarpInst::barrier())
            .load({0x20000}).finish()));
    k.warps.push_back(std::make_unique<VectorWarpStream>(
        WarpBuilder().add(WarpInst::barrier()).load({0x30000}).finish()));
    run(std::move(k));
    // Warps 0 and 2 share CU 0; warp 1 is alone on CU 1 and its barrier
    // releases immediately.  The loads of warps 0 and 2 issue only
    // after the 300-cycle compute finishes.
    for (const auto &req : mem_.requests) {
        if (req.line == 0x10000u || req.line == 0x30000u) {
            EXPECT_GE(req.at, 300u);
        }
    }
    ASSERT_EQ(mem_.requests.size(), 3u);
}

TEST_F(CuTest, MoreWarpsThanSlotsDrainsEventually)
{
    KernelLaunch k;
    for (int w = 0; w < 20; ++w) { // > 2 CUs * 4 slots
        k.warps.push_back(std::make_unique<VectorWarpStream>(
            WarpBuilder()
                .load({Vaddr(w) * kPageSize})
                .add(WarpInst::compute(3)).finish()));
    }
    run(std::move(k));
    EXPECT_EQ(mem_.requests.size(), 20u);
    EXPECT_EQ(snapshotOf(gpu_).get("mem_instructions"), 20u);
}

TEST_F(CuTest, StoreQueueCapStallsIssue)
{
    GpuParams p;
    p.num_cus = 1;
    p.max_resident_warps = 2;
    p.max_outstanding_stores = 4;
    SimContext ctx;
    FakeMem mem(ctx, /*latency=*/1000);
    Gpu gpu(ctx, p, mem);
    KernelLaunch k;
    WarpBuilder insts;
    for (int i = 0; i < 12; ++i)
        insts.store({Vaddr(i) * kLineSize});
    k.warps.push_back(
        std::make_unique<VectorWarpStream>(insts.finish()));
    bool done = false;
    gpu.launch(std::move(k), [&] { done = true; });
    ctx.eq.run();
    EXPECT_TRUE(done);
    // With a cap of 4 and 1000-cycle stores, the 12 stores need at
    // least two drain rounds.
    EXPECT_GE(ctx.now(), 2000u);
}

TEST_F(CuTest, SequentialKernelLaunches)
{
    for (int i = 0; i < 3; ++i) {
        KernelLaunch k;
        k.warps.push_back(std::make_unique<VectorWarpStream>(
            WarpBuilder().load({Vaddr(i) * kPageSize}).finish()));
        run(std::move(k));
    }
    EXPECT_EQ(gpu_.kernelsLaunched(), 3u);
    EXPECT_EQ(mem_.requests.size(), 3u);
}

TEST_F(CuTest, PerAsidRequestsCarryAsid)
{
    KernelLaunch k;
    k.asid = 7;
    k.warps.push_back(std::make_unique<VectorWarpStream>(
        WarpBuilder().load({0x4000}).finish()));
    run(std::move(k));
    ASSERT_EQ(mem_.requests.size(), 1u);
    EXPECT_EQ(mem_.requests[0].asid, 7u);
}

/**
 * The round-robin pick as a linear scan over (start + i) % n, the way
 * the CU found it before it kept a ready mask: the reference for
 * pickRoundRobin().
 */
unsigned
linearRoundRobin(const std::vector<bool> &ready,
                 const std::vector<Tick> &ready_at, unsigned start,
                 Tick now)
{
    const unsigned n = unsigned(ready.size());
    for (unsigned i = 0; i < n; ++i) {
        const unsigned idx = (start + i) % n;
        if (ready[idx] && ready_at[idx] <= now)
            return idx;
    }
    return ~0u;
}

TEST(WarpPick, MaskPickEqualsLinearScan)
{
    Rng rng(2024);
    for (const unsigned n : {1u, 24u, ComputeUnit::kMaxResidentWarps}) {
        for (int trial = 0; trial < 5000; ++trial) {
            // Each slot is ready with probability 1/5, 1/2 or 4/5 (of
            // the five slot states, only kReady sets a mask bit).
            const double p_ready = trial % 3 == 0 ? 0.2
                                 : trial % 3 == 1 ? 0.5
                                                  : 0.8;
            std::vector<bool> ready(n);
            std::vector<Tick> ready_at(n);
            std::uint64_t mask = 0;
            for (unsigned i = 0; i < n; ++i) {
                ready[i] = rng.chance(p_ready);
                ready_at[i] = rng.below(40);
                if (ready[i])
                    mask |= std::uint64_t{1} << i;
            }
            const unsigned start = unsigned(rng.below(n));
            const Tick now = rng.below(40);
            const unsigned picked =
                pickRoundRobin(mask, start, [&](unsigned i) {
                    return ready_at[i] <= now;
                });
            ASSERT_EQ(picked, linearRoundRobin(ready, ready_at, start, now))
                << "n=" << n << " trial=" << trial;
        }
    }
}

/** Memory with a per-request pseudo-random latency, logging each request. */
class JitterMem final : public GpuMemInterface
{
  public:
    explicit JitterMem(SimContext &ctx) : ctx_(ctx), rng_(99) {}

    void
    access(unsigned, Asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        mix(line_va);
        mix(ctx_.now());
        mix(is_store);
        ctx_.eq.scheduleIn(1 + rng_.below(200), std::move(done));
    }

    void
    mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            digest ^= (v >> (8 * b)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    }

    std::uint64_t digest = 0xcbf29ce484222325ull;

  private:
    SimContext &ctx_;
    Rng rng_;
};

/**
 * Run one random kernel (compute, scratch, loads, stores and one
 * barrier per warp; three warps per slot) on a single CU and digest the
 * order and tick of every memory request plus the end tick.
 */
std::uint64_t
issueOrderDigest(WarpSchedPolicy sched, unsigned slots)
{
    GpuParams p;
    p.num_cus = 1;
    p.max_resident_warps = slots;
    p.sched = sched;
    SimContext ctx;
    JitterMem mem(ctx);
    Gpu gpu(ctx, p, mem);
    Rng rng(slots * 7 + unsigned(sched));
    KernelLaunch k;
    for (unsigned w = 0; w < 3 * slots; ++w) {
        WarpBuilder insts;
        for (int i = 0; i < 24; ++i) {
            if (i == 12)
                insts.add(WarpInst::barrier());
            const auto op = rng.below(8);
            const Vaddr line = (w * 64 + rng.below(64)) * kLineSize;
            if (op < 3)
                insts.add(WarpInst::compute(1 + rng.below(12)));
            else if (op < 4)
                insts.add(WarpInst::scratch(rng.chance(0.5)));
            else if (op < 6)
                insts.load({line, line + kLineSize * rng.below(3)});
            else
                insts.store({line});
        }
        k.warps.push_back(
            std::make_unique<VectorWarpStream>(insts.finish()));
    }
    bool done = false;
    gpu.launch(std::move(k), [&] { done = true; });
    ctx.eq.run();
    mem.mix(done);
    mem.mix(ctx.now());
    return mem.digest;
}

// Digests recorded with the linear-scan scheduler the ready mask
// replaced: both policies must issue in exactly the same order.
TEST(WarpPick, IssueOrderMatchesTheLinearScanScheduler)
{
    using P = WarpSchedPolicy;
    EXPECT_EQ(issueOrderDigest(P::kRoundRobin, 1), 0x217e8dfcbc22b86bull);
    EXPECT_EQ(issueOrderDigest(P::kRoundRobin, 24), 0xf785a25027087d8dull);
    EXPECT_EQ(issueOrderDigest(P::kRoundRobin, 64), 0x4a89de8e5210a5feull);
    EXPECT_EQ(issueOrderDigest(P::kGreedyThenOldest, 1),
              0x97aa343abf8f8eebull);
    EXPECT_EQ(issueOrderDigest(P::kGreedyThenOldest, 24),
              0x27afaa9df2c82860ull);
    EXPECT_EQ(issueOrderDigest(P::kGreedyThenOldest, 64),
              0x58c22a8c138fa7acull);
}

TEST(WarpPickDeath, MoreSlotsThanTheReadyMaskHoldsAreRefused)
{
    GpuParams p;
    p.num_cus = 1;
    p.max_resident_warps = ComputeUnit::kMaxResidentWarps + 1;
    SimContext ctx;
    FakeMem mem(ctx);
    EXPECT_DEATH(
        {
            Gpu gpu(ctx, p, mem);
            gpu.launch(KernelLaunch{}, [] {});
            ctx.eq.run();
        },
        "max_resident_warps 65 exceeds the supported 64");
    EXPECT_EQ(ctx.now(), 0u); // nothing ran in this process either
}

} // namespace
} // namespace gvc
