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
        trace::captureKernels(launches, *capture);
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
                collectKernelStats(sut, gpu, ctx);
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
        const KernelStats snap = collectKernelStats(sut, gpu, ctx);
        per_kernel.push_back(kernelDelta(snap, prev_snap));
    }
    if (hooks && hooks->at_end)
        hooks->at_end(sut, gpu, dram, vm, ctx);

    const Tick end = ctx.now();
    if (Iommu *io = sut.iommu())
        io->sampler().finish(end);
    sut.system().flushLifetimes();

    RunResult r;
    const StatSnapshot totals = snapshotStats(sut, gpu, ctx);
    forEachResultField(
        [&totals](const char *name, unsigned, auto &v) {
            readCounter(totals, name, v);
        },
        r);
    const auto ratio = [&totals](const char *num, const char *den) {
        const std::uint64_t d = totals.get(den);
        return d ? double(totals.get(num)) / double(d) : 0.0;
    };
    r.tlb_miss_ratio = ratio("percu_tlb.misses", "percu_tlb.accesses");
    r.l1_hit_ratio = ratio("l1.hits", "l1.accesses");
    r.l2_hit_ratio = ratio("l2.hits", "l2.accesses");
    r.iommu_serialization_mean =
        ratio("iommu.serialization_cycles", "iommu.accesses");
    r.lines_per_mem_inst =
        ratio("gpu.coalesced_lines", "gpu.mem_instructions");
    // The FBT's forward table when the design has one, else the
    // IOMMU's second-level lookups.
    r.fbt_second_level_hit_ratio = ratio("fbt.ft_hits", "fbt.ft_lookups");
    if (r.fbt_second_level_hit_ratio == 0.0) {
        r.fbt_second_level_hit_ratio = ratio(
            "iommu.second_level_hits", "iommu.second_level_lookups");
    }
    sut.collectTlbRefs(r.percu_tlb_refs, r.iommu_tlb_refs);
    r.workload = source.name();
    r.design = cfg.design;
    r.kernels = std::move(per_kernel);
    if (Iommu *io = sut.iommu()) {
        r.iommu_apc_mean = io->sampler().meanPerCycle();
        r.iommu_apc_stdev = io->sampler().stdevPerCycle();
        r.iommu_apc_max = io->sampler().maxPerCycle();
        r.iommu_frac_windows_over_1 =
            io->sampler().fractionAboveThreshold();
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
    // scenario then *is* a trace: its kernels launched rounds times
    // with a boundary marker between rounds, replayed by the core
    // runner.  This makes live scenario runs and replays of recorded
    // scenario traces the same code path, so they match bit for bit.
    auto base = std::make_shared<trace::Trace>();
    if (!cfg.trace_in.empty()) {
        std::string err;
        if (!trace::TraceReader::readFile(cfg.trace_in, *base, &err))
            fatal("runScenario: " + err);
        if (!base->boundaries.empty()) {
            fatal("runScenario: '" + cfg.trace_in +
                  "' already carries kernel boundaries; replay it "
                  "directly instead of re-tiling it");
        }
    } else {
        *base = trace::captureWorkloadTrace(workload_name, cfg.workload,
                                            cfg.soc.phys_mem_bytes);
    }
    if (base->kernels.empty() && spec.rounds > 1)
        fatal("runScenario: workload emitted no kernels to repeat");

    auto source = trace::TraceKernelSource::repeated(
        std::move(base), spec.rounds, spec.boundary.encode());
    if (capture)
        *capture = source.materialize();

    RunConfig run_cfg = cfg;
    run_cfg.trace_in.clear();
    return runSource(source, run_cfg, inspect);
}

} // namespace gvc
