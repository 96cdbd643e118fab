#include "trace/kernel_source.hh"

#include "mem/phys_mem.hh"
#include "sim/logging.hh"

namespace gvc::trace
{

TraceKernelSource::TraceKernelSource(std::shared_ptr<const Trace> trace)
    : trace_(std::move(trace)), boundaries_(trace_->boundaries)
{
    for (std::size_t k = 0; k < trace_->kernels.size(); ++k)
        launches_.push_back({k, trace_->kernels[k].asid});
}

TraceKernelSource::TraceKernelSource(std::shared_ptr<const Trace> trace,
                                     std::vector<TraceLaunch> launches,
                                     std::vector<TraceBoundary> boundaries)
    : trace_(std::move(trace)), launches_(std::move(launches)),
      boundaries_(std::move(boundaries))
{
    for (const TraceLaunch &l : launches_)
        panicIfNot(l.kernel < trace_->kernels.size(),
                   "TraceKernelSource: launch of a kernel out of range");
}

TraceKernelSource
TraceKernelSource::repeated(std::shared_ptr<const Trace> trace,
                            unsigned rounds, std::uint8_t policy)
{
    std::vector<TraceLaunch> launches;
    std::vector<TraceBoundary> boundaries;
    for (unsigned round = 0; round < rounds; ++round) {
        if (round > 0)
            boundaries.push_back({launches.size() - 1, policy});
        for (std::size_t k = 0; k < trace->kernels.size(); ++k)
            launches.push_back({k, trace->kernels[k].asid});
    }
    return TraceKernelSource(std::move(trace), std::move(launches),
                             std::move(boundaries));
}

std::vector<KernelLaunch>
TraceKernelSource::kernels()
{
    std::vector<KernelLaunch> out;
    out.reserve(launches_.size());
    for (const TraceLaunch &l : launches_) {
        KernelLaunch launch;
        launch.asid = l.asid;
        const auto &warps = trace_->kernels[l.kernel].warps;
        launch.warps.reserve(warps.size());
        // Each stream points at its warp and keeps the trace alive.
        for (const auto &warp : warps)
            launch.warps.push_back(std::make_unique<VectorWarpStream>(
                VectorWarpStream::Insts(trace_, &warp)));
        out.push_back(std::move(launch));
    }
    return out;
}

Trace
TraceKernelSource::materialize() const
{
    Trace t{trace_->workload, trace_->params, trace_->vm_ops, {},
            boundaries_};
    for (const TraceLaunch &l : launches_) {
        t.kernels.push_back(trace_->kernels[l.kernel]);
        t.kernels.back().asid = l.asid;
    }
    return t;
}

void
captureKernels(std::vector<KernelLaunch> &launches, Trace &capture)
{
    capture.kernels.clear();
    capture.kernels.resize(launches.size());
    for (std::size_t ki = 0; ki < launches.size(); ++ki) {
        TraceKernel &kernel = capture.kernels[ki];
        kernel.asid = launches[ki].asid;
        kernel.warps.reserve(launches[ki].warps.size());
        for (auto &stream : launches[ki].warps) {
            kernel.warps.push_back(stream->take());
            // A non-owning pointer: the capture belongs to the caller.
            stream = std::make_unique<VectorWarpStream>(
                VectorWarpStream::Insts(VectorWarpStream::Insts(),
                                        &kernel.warps.back()));
        }
    }
}

Trace
captureTrace(KernelSource &source, std::uint64_t phys_mem_bytes)
{
    Trace t;
    t.workload = source.name();
    t.params = source.params();

    PhysMem pm(phys_mem_bytes);
    Vm vm(pm);
    vm.recordOps(true);
    source.setup(vm);
    vm.recordOps(false);
    t.vm_ops = vm.recordedOps();

    auto launches = source.kernels();
    captureKernels(launches, t);
    return t;
}

Trace
captureWorkloadTrace(const std::string &workload,
                     const WorkloadParams &params,
                     std::uint64_t phys_mem_bytes)
{
    WorkloadKernelSource source(workload, params);
    return captureTrace(source, phys_mem_bytes);
}

} // namespace gvc::trace
