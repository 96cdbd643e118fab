/**
 * @file
 * Experiment runner: build a (workload, MMU design) pair over a fresh
 * simulation context, execute every kernel launch to completion, and
 * collect the statistics the paper's figures are built from.
 */

#ifndef GVC_HARNESS_RUNNER_HH
#define GVC_HARNESS_RUNNER_HH

#include <functional>
#include <string>

#include <vector>

#include "gpu/gpu.hh"
#include "harness/scenario.hh"
#include "mmu/designs.hh"
#include "tlb/tlb.hh"
#include "trace/kernel_source.hh"
#include "workloads/registry.hh"

namespace gvc
{

/** One experiment's configuration. */
struct RunConfig
{
    MmuDesign design = MmuDesign::kBaseline512;
    SocConfig soc;
    WorkloadParams workload;
    /**
     * Use `soc` exactly as given instead of applying the design's
     * Table-2 defaults (configFor).  The design then only selects the
     * hierarchy structure; all sizes/limits come from `soc`.
     */
    bool raw_soc = false;
    /**
     * When non-empty, replay this trace file instead of generating the
     * named workload: the VM image is reconstructed from the trace's
     * recorded op log and `workload.seed/scale/...` are taken from the
     * trace metadata (only `soc`/`design` from this config apply).
     */
    std::string trace_in;
};

/** The SocConfig a run simulates: `soc` as given in raw mode, else
 *  configFor(design, soc). */
SocConfig effectiveSoc(const RunConfig &cfg);

/**
 * Results of one run: the cumulative RunCounters plus design-specific
 * counters, rates, and histograms.  Every scalar is exported through
 * forEachResultField(), so a new counter is one member here plus one
 * row there.
 */
struct RunResult : RunCounters
{
    std::string workload;
    MmuDesign design = MmuDesign::kBaseline512;

    // --- virtual-cache specifics ---
    std::uint64_t rw_faults = 0;
    std::uint64_t fbt_purges = 0;
    std::uint64_t fbt_valid_pages = 0; ///< Pages resident at end.

    // --- reach-generalized translation stack ---
    std::uint64_t tlb_reach_hits = 0;    ///< Per-CU hits on reach>0.
    std::uint64_t tlb_reach_fills = 0;   ///< Per-CU reach>0 fills.
    std::uint64_t tlb_merges = 0;        ///< Per-CU buddy merges.
    std::uint64_t tlb_fill_bypasses = 0; ///< Predicted-dead fill skips.
    std::uint64_t iommu_reach_hits = 0;
    std::uint64_t iommu_reach_fills = 0;
    std::uint64_t iommu_coalesced_fills = 0; ///< Contiguity-coalesced.
    std::uint64_t large_page_walks = 0;      ///< Walks ending at 2 MB.
    std::uint64_t victima_stashes = 0;       ///< Evictions parked in L2.
    std::uint64_t victima_probes = 0;        ///< Stash probes on miss.
    std::uint64_t victima_hits = 0;          ///< Probes that hit.

    // --- dead-entry-aware TLB policies ---
    std::uint64_t tlb_dead_first_evictions = 0; ///< Per-CU dead-first.
    std::uint64_t tlb_pred_true_pos = 0;  ///< Sampled installs, dead.
    std::uint64_t tlb_pred_false_pos = 0; ///< Sampled installs, reused.
    std::uint64_t iommu_fill_bypasses = 0;
    std::uint64_t iommu_dead_first_evictions = 0;
    std::uint64_t iommu_pred_true_pos = 0;
    std::uint64_t iommu_pred_false_pos = 0;

    // --- rates ---
    double lines_per_mem_inst = 0.0;
    double tlb_miss_ratio = 0.0;
    double iommu_apc_mean = 0.0;  ///< Accesses per cycle, window mean.
    double iommu_apc_stdev = 0.0;
    double iommu_apc_max = 0.0;
    double iommu_frac_windows_over_1 = 0.0;
    double iommu_serialization_mean = 0.0; ///< Cycles queued per access.
    double fbt_second_level_hit_ratio = 0.0;
    double l1_hit_ratio = 0.0;
    double l2_hit_ratio = 0.0;

    TlbMissBreakdown tlb_breakdown; ///< Figure 2 classification.

    /**
     * Per-kernel stat deltas for multi-kernel scenario runs, one entry
     * per kernel (delimited by the source's boundaries).  Empty for
     * plain single-scenario runs — the counters above always hold the
     * cumulative totals either way.
     */
    std::vector<KernelStats> kernels;

    // --- multi-tenant runs (runTenants; empty/zero otherwise) ---
    /** Per-tenant stat deltas; sum field-exactly to the totals above. */
    std::vector<TenantStats> tenants;
    /** Scheduler slot transitions where the running tenant changed. */
    std::uint64_t tenant_context_switches = 0;
    /** Pages hit by injected shootdown-storm protect bursts. */
    std::uint64_t tenant_storm_pages = 0;

    // --- TLB entry-lifetime histograms (always collected) ---
    TlbRefHist percu_tlb_refs; ///< Per-CU TLBs (designs that have them).
    TlbRefHist iommu_tlb_refs; ///< Shared IOMMU TLB.
};

/** Row flags of the RunResult and SocConfig field tables. */
enum FieldFlags : unsigned {
    /**
     * Results-schema v1–v3 writers omitted the field while it was zero
     * (or the knob at its default), so importing those versions
     * defaults it when absent.
     */
    kFieldLegacyOptional = 1u << 0,
    /**
     * Part of the multi-tenant block: v1/v2 documents must not carry
     * it, v3 documents must.  Not a CSV column.
     */
    kFieldTenant = 1u << 1,
};

/**
 * RunResult's scalar field table: calls @p f(name, flags, field...)
 * once per exported scalar, in export and CSV-column order, passing
 * that member of each object in @p r.  Dotted names address nested
 * members ("tlb_breakdown.miss_l1_hit" is a nested JSON object and a
 * dotted CSV column).  The vectors and histograms are not scalars and
 * are serialized by results_io directly.
 */
template <class F, class... R>
void
forEachResultField(F &&f, R &...r)
{
    forEachRunCounter(
        [&](const char *name, auto &...v) { f(name, 0u, v...); }, r...);
    f("rw_faults", 0u, r.rw_faults...);
    f("fbt_purges", 0u, r.fbt_purges...);
    f("fbt_valid_pages", 0u, r.fbt_valid_pages...);
    constexpr unsigned kOpt = kFieldLegacyOptional;
    f("tlb_reach_hits", kOpt, r.tlb_reach_hits...);
    f("tlb_reach_fills", kOpt, r.tlb_reach_fills...);
    f("tlb_merges", kOpt, r.tlb_merges...);
    f("tlb_fill_bypasses", kOpt, r.tlb_fill_bypasses...);
    f("iommu_reach_hits", kOpt, r.iommu_reach_hits...);
    f("iommu_reach_fills", kOpt, r.iommu_reach_fills...);
    f("iommu_coalesced_fills", kOpt, r.iommu_coalesced_fills...);
    f("large_page_walks", kOpt, r.large_page_walks...);
    f("victima_stashes", kOpt, r.victima_stashes...);
    f("victima_probes", kOpt, r.victima_probes...);
    f("victima_hits", kOpt, r.victima_hits...);
    f("tlb_dead_first_evictions", kOpt, r.tlb_dead_first_evictions...);
    f("tlb_pred_true_pos", kOpt, r.tlb_pred_true_pos...);
    f("tlb_pred_false_pos", kOpt, r.tlb_pred_false_pos...);
    f("iommu_fill_bypasses", kOpt, r.iommu_fill_bypasses...);
    f("iommu_dead_first_evictions", kOpt, r.iommu_dead_first_evictions...);
    f("iommu_pred_true_pos", kOpt, r.iommu_pred_true_pos...);
    f("iommu_pred_false_pos", kOpt, r.iommu_pred_false_pos...);
    f("lines_per_mem_inst", 0u, r.lines_per_mem_inst...);
    f("tlb_miss_ratio", 0u, r.tlb_miss_ratio...);
    f("iommu_apc_mean", 0u, r.iommu_apc_mean...);
    f("iommu_apc_stdev", 0u, r.iommu_apc_stdev...);
    f("iommu_apc_max", 0u, r.iommu_apc_max...);
    f("iommu_frac_windows_over_1", 0u, r.iommu_frac_windows_over_1...);
    f("iommu_serialization_mean", 0u, r.iommu_serialization_mean...);
    f("fbt_second_level_hit_ratio", 0u, r.fbt_second_level_hit_ratio...);
    f("l1_hit_ratio", 0u, r.l1_hit_ratio...);
    f("l2_hit_ratio", 0u, r.l2_hit_ratio...);
    f("tlb_breakdown.miss_l1_hit", 0u, r.tlb_breakdown.miss_l1_hit...);
    f("tlb_breakdown.miss_l2_hit", 0u, r.tlb_breakdown.miss_l2_hit...);
    f("tlb_breakdown.miss_l2_miss", 0u, r.tlb_breakdown.miss_l2_miss...);
    f("tenant_context_switches", kFieldTenant,
      r.tenant_context_switches...);
    f("tenant_storm_pages", kFieldTenant, r.tenant_storm_pages...);
}

/**
 * Hook invoked after the run completes but before teardown, for benches
 * that need non-scalar state (lifetime histograms, FBT contents).
 */
using InspectFn =
    std::function<void(SystemUnderTest &, Gpu &, SimContext &)>;

/**
 * Optional scheduler hooks threaded through runSource for multi-tenant
 * runs.  All three are cold-path (invoked between kernels, never inside
 * the event loop), and a null hook — or a null RunHooks pointer — keeps
 * runSource byte-identical to the hook-free path.
 */
struct RunHooks
{
    /**
     * Earliest tick kernel @p i may launch (an arrival process).  When
     * the returned tick is in the past the launch is immediate, so a
     * hook returning 0 is equivalent to no hook.
     */
    std::function<Tick(std::size_t i)> start_at;

    /**
     * Invoked after boundary @p b's policy has been applied and the GPU
     * issue state rebased, before the next launch.  This is where a
     * tenant scheduler snapshots per-slot deltas, applies per-ASID
     * shootdowns, and injects shootdown storms through the Vm.
     */
    std::function<void(std::size_t b, SystemUnderTest &, Gpu &, Dram &,
                       Vm &, SimContext &)>
        after_boundary;

    /** Invoked once after the last kernel drains (final snapshot). */
    std::function<void(SystemUnderTest &, Gpu &, Dram &, Vm &,
                       SimContext &)>
        at_end;
};

/**
 * Execute @p source under @p cfg — the core runner; every entry point
 * funnels here.  The simulation seed and workload identity come from
 * the source, so a TraceKernelSource reproduces the live run exactly.
 * When @p capture is non-null, the run additionally records the VM op
 * log and every warp stream into it (metadata included).
 */
RunResult runSource(trace::KernelSource &source, const RunConfig &cfg,
                    const InspectFn &inspect = {},
                    trace::Trace *capture = nullptr,
                    const RunHooks *hooks = nullptr);

/**
 * Execute @p workload_name under @p cfg.  If `cfg.trace_in` is set the
 * trace file is replayed instead and @p workload_name is ignored.
 */
RunResult runWorkload(const std::string &workload_name,
                      const RunConfig &cfg, const InspectFn &inspect = {},
                      trace::Trace *capture = nullptr);

/**
 * Execute a multi-kernel scenario: capture one round of @p workload_name
 * (or of `cfg.trace_in`, which must not itself carry boundaries), tile
 * it `spec.rounds` times with `spec.boundary` between rounds, and replay
 * the resulting scenario trace.  Because the live run *is* a replay of
 * its own scenario trace, a recorded scenario (@p capture, written as a
 * .gvct v2) replays bit-identically by construction.  The result carries
 * one KernelStats delta per round in `RunResult::kernels`.
 */
RunResult runScenario(const std::string &workload_name,
                      const RunConfig &cfg, const ScenarioSpec &spec,
                      const InspectFn &inspect = {},
                      trace::Trace *capture = nullptr);

} // namespace gvc

#endif // GVC_HARNESS_RUNNER_HH
