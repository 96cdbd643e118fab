#include "harness/runner.hh"

#include <memory>
#include <utility>

#include "mem/phys_mem.hh"
#include "mem/vm.hh"

namespace gvc
{

SocConfig
effectiveSoc(const RunConfig &cfg)
{
    return cfg.raw_soc ? cfg.soc : configFor(cfg.design, cfg.soc);
}

RunResult
runSource(trace::KernelSource &source, const RunConfig &cfg,
          const InspectFn &inspect, trace::Trace *capture,
          const RunHooks *hooks)
{
    // The seed comes from the source so a trace replays with the same
    // simulation context the live run had.
    SimContext ctx(source.params().seed);
    PhysMem pm(cfg.soc.phys_mem_bytes);
    // The design's page policy must be live before setup() maps any
    // region, so the resolved SocConfig is needed ahead of the Vm.
    const SocConfig soc = effectiveSoc(cfg);
    Vm vm(pm);
    vm.setPagePolicy(Vm::PagePolicy(soc.vm_page_policy));

    if (capture) {
        capture->workload = source.name();
        capture->params = source.params();
        vm.recordOps(true);
    }
    source.setup(vm);
    if (capture) {
        vm.recordOps(false);
        capture->vm_ops = vm.recordedOps();
    }

    Dram dram(ctx, cfg.soc.dram);
    SystemUnderTest sut(ctx, soc, vm, dram, cfg.design);
    Gpu gpu(ctx, soc.gpu, sut.system());

    auto launches = source.kernels();
    if (capture) {
        trace::wrapForRecording(launches, *capture);
        capture->boundaries = source.boundaries();
    }

    // Kernel boundaries (scenario runs): after the named launch drains,
    // snapshot the counters into a per-kernel delta, apply the boundary
    // policy, and rebase the CU issue machinery so the next kernel
    // schedules shift-invariantly.
    const auto &bounds = source.boundaries();
    std::vector<KernelStats> per_kernel;
    KernelStats prev_snap;
    std::size_t next_bound = 0;
    for (std::size_t i = 0; i < launches.size(); ++i) {
        bool done = false;
        // A start_at hook models a kernel arrival process: a launch
        // whose arrival is still in the future waits on the event
        // queue (the GPU sits idle), otherwise it starts immediately.
        const Tick at =
            hooks && hooks->start_at ? hooks->start_at(i) : 0;
        if (at > ctx.now()) {
            ctx.eq.schedule(at, [&gpu, &launches, &done, i] {
                gpu.launch(std::move(launches[i]),
                           [&done] { done = true; });
            });
        } else {
            gpu.launch(std::move(launches[i]), [&done] { done = true; });
        }
        ctx.eq.run();
        if (!done)
            panic("runSource: kernel failed to drain the event queue");
        if (next_bound < bounds.size() &&
            bounds[next_bound].kernel == i) {
            const auto policy =
                BoundaryPolicy::decode(bounds[next_bound].policy);
            if (!policy)
                fatal("runSource: invalid boundary policy byte");
            const KernelStats snap =
                collectKernelStats(sut, gpu, dram, ctx);
            per_kernel.push_back(kernelDelta(snap, prev_snap));
            prev_snap = snap;
            sut.system().applyBoundary(*policy);
            gpu.resetIssueState();
            if (hooks && hooks->after_boundary)
                hooks->after_boundary(next_bound, sut, gpu, dram, vm,
                                      ctx);
            ++next_bound;
        }
    }

    if (!bounds.empty()) {
        const KernelStats snap = collectKernelStats(sut, gpu, dram, ctx);
        per_kernel.push_back(kernelDelta(snap, prev_snap));
    }
    if (hooks && hooks->at_end)
        hooks->at_end(sut, gpu, dram, vm, ctx);

    const Tick end = ctx.now();
    if (Iommu *io = sut.iommu())
        io->sampler().finish(end);
    sut.system().flushLifetimes();

    RunResult r;
    // The shared counters come from the same snapshot the per-kernel
    // deltas use; below, only the Baseline's breakdown and stash and the
    // VC's FBT are specific to one hierarchy.
    const KernelStats totals = collectKernelStats(sut, gpu, dram, ctx);
    static_cast<RunCounters &>(r) = totals;
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den ? double(num) / double(den) : 0.0;
    };
    r.tlb_miss_ratio = ratio(totals.tlb_misses, totals.tlb_accesses);
    r.l1_hit_ratio = ratio(totals.l1_hits, totals.l1_accesses);
    r.l2_hit_ratio = ratio(totals.l2_hits, totals.l2_accesses);
    sut.collectTlbRefs(r.percu_tlb_refs, r.iommu_tlb_refs);
    r.workload = source.name();
    r.design = cfg.design;
    r.kernels = std::move(per_kernel);
    r.lines_per_mem_inst = gpu.meanLinesPerMemInst();

    if (const PerCuTlbs *tlbs = sut.system().perCuTlbs()) {
        r.tlb_reach_hits = tlbs->sum(&Tlb::reachHits);
        r.tlb_reach_fills = tlbs->sum(&Tlb::reachFills);
        r.tlb_merges = tlbs->sum(&Tlb::merges);
        r.tlb_fill_bypasses = tlbs->sum(&Tlb::fillBypasses);
        r.tlb_dead_first_evictions = tlbs->sum(&Tlb::deadFirstEvictions);
        r.tlb_pred_true_pos = tlbs->sum(&Tlb::predTruePos);
        r.tlb_pred_false_pos = tlbs->sum(&Tlb::predFalsePos);
    }
    if (BaselineMmuSystem *b = sut.baseline()) {
        r.tlb_breakdown = b->breakdown();
        r.victima_stashes = b->victimaStashes();
        r.victima_probes = b->victimaProbes();
        r.victima_hits = b->victimaHits();
    } else if (VirtualCacheSystem *v = sut.vc()) {
        r.rw_faults = v->rwFaults();
        r.fbt_purges = v->fbtPurges();
        r.fbt_valid_pages = v->fbt().validEntries();
        r.fbt_second_level_hit_ratio = v->fbt().ftHitRatio();
    }

    if (Iommu *io = sut.iommu()) {
        r.iommu_apc_mean = io->sampler().meanPerCycle();
        r.iommu_apc_stdev = io->sampler().stdevPerCycle();
        r.iommu_apc_max = io->sampler().maxPerCycle();
        r.iommu_frac_windows_over_1 =
            io->sampler().fractionAboveThreshold();
        r.iommu_serialization_mean = io->meanSerializationDelay();
        r.iommu_reach_hits = io->tlb().reachHits();
        r.iommu_reach_fills = io->tlb().reachFills();
        r.iommu_coalesced_fills = io->coalescedFills();
        r.large_page_walks = io->ptw().largeWalks();
        r.iommu_fill_bypasses = io->tlb().fillBypasses();
        r.iommu_dead_first_evictions = io->tlb().deadFirstEvictions();
        r.iommu_pred_true_pos = io->tlb().predTruePos();
        r.iommu_pred_false_pos = io->tlb().predFalsePos();
        if (r.fbt_second_level_hit_ratio == 0.0 &&
            io->secondLevelLookups() > 0) {
            r.fbt_second_level_hit_ratio =
                double(io->secondLevelHits()) /
                double(io->secondLevelLookups());
        }
    }

    if (inspect)
        inspect(sut, gpu, ctx);
    return r;
}

RunResult
runWorkload(const std::string &workload_name, const RunConfig &cfg,
            const InspectFn &inspect, trace::Trace *capture)
{
    if (!cfg.trace_in.empty()) {
        auto t = std::make_shared<trace::Trace>();
        std::string err;
        if (!trace::TraceReader::readFile(cfg.trace_in, *t, &err))
            fatal("runWorkload: " + err);
        trace::TraceKernelSource source(std::move(t));
        return runSource(source, cfg, inspect, capture);
    }
    trace::WorkloadKernelSource source(workload_name, cfg.workload);
    return runSource(source, cfg, inspect, capture);
}

RunResult
runScenario(const std::string &workload_name, const RunConfig &cfg,
            const ScenarioSpec &spec, const InspectFn &inspect,
            trace::Trace *capture)
{
    if (spec.rounds == 0)
        fatal("runScenario: rounds must be >= 1");

    // One round of the workload, captured without simulating.  The
    // scenario then *is* a trace: kernels tiled rounds times with a
    // boundary marker between rounds, replayed by the core runner.
    // This makes live scenario runs and replays of recorded scenario
    // traces the same code path, so they match bit for bit.
    trace::Trace base;
    if (!cfg.trace_in.empty()) {
        std::string err;
        if (!trace::TraceReader::readFile(cfg.trace_in, base, &err))
            fatal("runScenario: " + err);
        if (!base.boundaries.empty()) {
            fatal("runScenario: '" + cfg.trace_in +
                  "' already carries kernel boundaries; replay it "
                  "directly instead of re-tiling it");
        }
    } else {
        base = trace::captureWorkloadTrace(workload_name, cfg.workload,
                                           cfg.soc.phys_mem_bytes);
    }
    if (base.kernels.empty() && spec.rounds > 1)
        fatal("runScenario: workload emitted no kernels to repeat");

    auto scen = std::make_shared<trace::Trace>(std::move(base));
    const std::size_t per_round = scen->kernels.size();
    const std::vector<trace::TraceKernel> one_round = scen->kernels;
    for (unsigned round = 1; round < spec.rounds; ++round) {
        scen->boundaries.push_back(trace::TraceBoundary{
            std::uint64_t(round) * per_round - 1,
            spec.boundary.encode()});
        scen->kernels.insert(scen->kernels.end(), one_round.begin(),
                             one_round.end());
    }
    if (capture)
        *capture = *scen;

    RunConfig run_cfg = cfg;
    run_cfg.trace_in.clear();
    trace::TraceKernelSource source(std::move(scen));
    return runSource(source, run_cfg, inspect);
}

} // namespace gvc
