/**
 * @file
 * KernelSource: the provenance-agnostic interface between workload
 * generation and simulation.  The runner drives a KernelSource without
 * knowing whether warp streams come from a live workload generator or a
 * captured trace file; recording and replay are wrappers at this layer,
 * not special cases inside the simulator.
 */

#ifndef GVC_TRACE_KERNEL_SOURCE_HH
#define GVC_TRACE_KERNEL_SOURCE_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "workloads/registry.hh"

namespace gvc::trace
{

/**
 * Something that can populate a VM image and emit kernel launches.
 *
 * Lifecycle: setup() exactly once on a fresh Vm (the source creates its
 * own processes), then kernels() exactly once.
 */
class KernelSource
{
  public:
    virtual ~KernelSource() = default;

    /** Workload name (for results and reports). */
    virtual std::string name() const = 0;

    /** Generation parameters (seed feeds the simulation context). */
    virtual const WorkloadParams &params() const = 0;

    /** Create processes and map/initialize all device data. */
    virtual void setup(Vm &vm) = 0;

    /** Produce every kernel launch (call once, after setup). */
    virtual std::vector<KernelLaunch> kernels() = 0;

    /**
     * Kernel boundaries between the launches kernels() returns, in
     * strictly increasing launch order (see TraceBoundary).  Empty for
     * plain single-scenario sources; the runner applies each boundary's
     * policy after the named launch completes.
     */
    virtual const std::vector<TraceBoundary> &
    boundaries() const
    {
        static const std::vector<TraceBoundary> kNone;
        return kNone;
    }
};

/** Live generation: wraps a registry workload. */
class WorkloadKernelSource final : public KernelSource
{
  public:
    WorkloadKernelSource(const std::string &name,
                         const WorkloadParams &params)
        : name_(name), params_(params), workload_(makeWorkload(name, params))
    {
    }

    std::string name() const override { return name_; }
    const WorkloadParams &params() const override { return params_; }

    void
    setup(Vm &vm) override
    {
        asid_ = vm.createProcess();
        workload_->setup(vm, asid_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        return workload_->kernels();
    }

  private:
    std::string name_;
    WorkloadParams params_;
    std::unique_ptr<Workload> workload_;
    Asid asid_ = 0;
};

/** One replayed launch: a kernel of the trace, under an address space. */
struct TraceLaunch
{
    std::size_t kernel = 0;
    Asid asid = 0;
};

/**
 * Replay: drives a simulation from a captured Trace.  The source plays
 * a list of launches over the trace's kernels, so repeating a kernel
 * (scenario rounds, tenant slots) launches it again instead of copying
 * it.
 */
class TraceKernelSource final : public KernelSource
{
  public:
    /** Every kernel once, under its recorded ASID, with the trace's
     *  own boundaries. */
    explicit TraceKernelSource(std::shared_ptr<const Trace> trace);

    /**
     * Play @p launches over @p trace's kernels; each of @p boundaries
     * names the launch (not the kernel) it follows.
     */
    TraceKernelSource(std::shared_ptr<const Trace> trace,
                      std::vector<TraceLaunch> launches,
                      std::vector<TraceBoundary> boundaries);

    /**
     * Every kernel of @p trace, in order, @p rounds times, with a
     * boundary of policy byte @p policy between consecutive rounds.
     */
    static TraceKernelSource repeated(std::shared_ptr<const Trace> trace,
                                      unsigned rounds,
                                      std::uint8_t policy);

    std::string name() const override { return trace_->workload; }
    const WorkloadParams &params() const override
    {
        return trace_->params;
    }

    /** Rebuild the VM image by replaying the recorded op log. */
    void
    setup(Vm &vm) override
    {
        applyVmOps(vm, trace_->vm_ops);
    }

    std::vector<KernelLaunch> kernels() override;

    const std::vector<TraceBoundary> &
    boundaries() const override
    {
        return boundaries_;
    }

    /**
     * The launch list written out as a trace of its own: one kernel per
     * launch, so a file replayed with the one-argument constructor runs
     * exactly what this source runs.
     */
    Trace materialize() const;

  private:
    std::shared_ptr<const Trace> trace_;
    std::vector<TraceLaunch> launches_;
    std::vector<TraceBoundary> boundaries_;
};

/**
 * Move every warp's instructions of @p launches into @p capture's
 * kernels (the capture must already carry the VM op log and metadata),
 * then point each stream at its captured warp, so a live run reads the
 * capture in place: recording copies no instruction a workload built.
 * @p capture must outlive the streams and keep its kernels unchanged
 * while they run.
 */
void captureKernels(std::vector<KernelLaunch> &launches, Trace &capture);

/**
 * Capture a workload into a Trace without simulating: run setup against
 * a scratch VM with op recording on, then take every warp's
 * instructions.
 *
 * @p phys_mem_bytes sizes the scratch physical memory and must match
 * the SocConfig the trace will later be replayed under (default: the
 * SocConfig default of 4 GiB).
 */
Trace captureTrace(KernelSource &source,
                   std::uint64_t phys_mem_bytes = 4ull << 30);

/** Convenience: capture a registry workload by name. */
Trace captureWorkloadTrace(const std::string &workload,
                           const WorkloadParams &params,
                           std::uint64_t phys_mem_bytes = 4ull << 30);

} // namespace gvc::trace

#endif // GVC_TRACE_KERNEL_SOURCE_HH
