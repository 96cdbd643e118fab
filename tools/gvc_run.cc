/**
 * @file
 * gvc_run — command-line driver: run any (workload, MMU design) pair
 * with structure sizes overridable from the command line, and print a
 * full statistics report.
 *
 *   gvc_run --list
 *   gvc_run --workload pagerank --design vc-opt
 *   gvc_run -w mis -d baseline-512 --scale 1.0 --iommu-bw 2
 *   gvc_run -w bfs -d vc-opt --fbt-entries 4096 --remap-entries 256
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "harness/cli.hh"
#include "harness/energy.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "mmu/boundary.hh"

using namespace gvc;

namespace
{

struct Options
{
    std::string workload = "pagerank";
    MmuDesign design = MmuDesign::kVcOpt;
    WorkloadParams params;
    SocOverrides soc;
    std::string trace_in;  ///< Replay this trace file instead.
    std::string trace_out; ///< Capture the run into this trace file.
    std::string json_out;  ///< Emit the RunResult as JSON (path or -).
    bool dump_stats = false;
    bool list = false;
    /** Multi-kernel scenario: rounds of the workload plus the policy. */
    ScenarioSpec scenario;
};

OptionTable
options(Options &opt)
{
    const OptionTable rest = {
        {"--iommu-banks", nullptr, "N", "shared TLB banks",
         storeSoc(opt.soc,
                  [](SocConfig &c) { return store(c.iommu.banks); })},
        {"--remap-entries", nullptr, "N", "synonym remap table entries",
         storeSoc(opt.soc, [](SocConfig &c) {
             return store(c.synonym_remap_entries);
         })},
        {"--kernels", nullptr, "N", "run N kernels on one warm system",
         [&opt](const char *flag, const std::string &value) {
             CliError err = parseValue(flag, value, opt.scenario.rounds);
             if (err.empty() && opt.scenario.rounds == 0)
                 err = std::string(flag) + ": must be >= 1";
             return err;
         }},
        {"--boundary", nullptr, "NAME",
         "keep-all | flush-l1 | flush-all | shootdown between kernels",
         storeNamed(opt.scenario.boundary, boundaryPolicyFromName,
                    "keep-all | flush-l1 | flush-all | shootdown")},
        {"--trace-out", nullptr, "PATH", "capture the run into a trace",
         store(opt.trace_out)},
        {"--trace-in", nullptr, "PATH",
         "replay a trace (its metadata replaces -w/--scale/--seed)",
         store(opt.trace_in)},
        jsonOption(opt.json_out),
        {"--stats", nullptr, nullptr, "dump the full statistics registry",
         storeConstant(opt.dump_stats)},
        {"--list", nullptr, nullptr, "list workloads and exit",
         storeConstant(opt.list)},
    };
    return concat({{workloadOption(opt.workload), designOption(opt.design)},
                   workloadParamOptions(opt.params),
                   socOptions(opt.soc), rest});
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.params.scale = 0.5;
    if (const auto rc = parseCommandLine("gvc_run", "[options]",
                                         options(opt), argc, argv))
        return *rc;
    if (opt.list) {
        for (const auto &n : allWorkloadNames())
            std::printf("%s\n", n.c_str());
        for (const auto &n : extraWorkloadNames())
            std::printf("%s (extra)\n", n.c_str());
        return 0;
    }
    RunConfig cfg = runConfigFor(opt.design, opt.params, opt.soc);
    cfg.trace_in = opt.trace_in;
    const bool scenario = opt.scenario.rounds > 1;
    if (cfg.trace_in.empty()) {
        std::printf("gvc_run: %s under %s (scale %.2f, seed %llu)\n",
                    opt.workload.c_str(), designName(cfg.design),
                    cfg.workload.scale,
                    (unsigned long long)cfg.workload.seed);
    } else {
        std::printf("gvc_run: replaying '%s' under %s\n",
                    cfg.trace_in.c_str(),
                    designName(cfg.design));
    }
    if (scenario) {
        std::printf("scenario: %u kernels, boundary %s\n",
                    opt.scenario.rounds,
                    boundaryPolicyName(opt.scenario.boundary));
    }
    std::printf("\n");

    std::string stats_dump;
    trace::Trace capture;
    trace::Trace *cap = opt.trace_out.empty() ? nullptr : &capture;
    const InspectFn inspect =
        [&](SystemUnderTest &sut, Gpu &, SimContext &ctx) {
            if (!opt.dump_stats)
                return;
            sut.registerStats(ctx.stats);
            std::ostringstream os;
            ctx.stats.dump(os);
            stats_dump = os.str();
        };
    const RunResult r =
        scenario ? runScenario(opt.workload, cfg, opt.scenario,
                               inspect, cap)
                 : runWorkload(opt.workload, cfg, inspect, cap);
    if (cap) {
        std::string err;
        if (!trace::TraceWriter::writeFile(opt.trace_out, capture, &err))
            fatal("gvc_run: " + err);
        std::fprintf(stderr,
                     "[gvc_run] wrote trace '%s' (%llu warps, %llu "
                     "instructions, digest %016llx)\n",
                     opt.trace_out.c_str(),
                     (unsigned long long)capture.totalWarps(),
                     (unsigned long long)capture.totalInstructions(),
                     (unsigned long long)trace::traceDigest(capture));
    }
    // cfg.soc is the resolved SoC the run simulated.
    if (!opt.json_out.empty() &&
        !writeOutput("gvc_run", opt.json_out,
                     runResultToJson(r, &cfg.soc).dump(2) + "\n"))
        return 1;
    const EnergyEstimate e = estimateEnergy(r);

    std::printf("execution\n");
    std::printf("  cycles                  : %llu\n",
                (unsigned long long)r.exec_ticks);
    std::printf("  warp instructions       : %llu (%llu memory)\n",
                (unsigned long long)r.instructions,
                (unsigned long long)r.mem_instructions);
    std::printf("  lines per mem inst      : %.2f\n",
                r.lines_per_mem_inst);
    std::printf("caches\n");
    std::printf("  L1 accesses / hit ratio : %llu / %.1f%%\n",
                (unsigned long long)r.l1_accesses,
                100.0 * r.l1_hit_ratio);
    std::printf("  L2 accesses / hit ratio : %llu / %.1f%%\n",
                (unsigned long long)r.l2_accesses,
                100.0 * r.l2_hit_ratio);
    std::printf("  DRAM traffic            : %llu accesses, %.1f MB\n",
                (unsigned long long)r.dram_accesses,
                double(r.dram_bytes) / (1 << 20));
    std::printf("translation\n");
    if (r.tlb_accesses) {
        std::printf("  per-CU TLB              : %llu accesses, %.1f%% "
                    "miss\n",
                    (unsigned long long)r.tlb_accesses,
                    100.0 * r.tlb_miss_ratio);
    }
    std::printf("  shared IOMMU TLB        : %llu accesses "
                "(%.3f/cycle mean, %.3f max)\n",
                (unsigned long long)r.iommu_accesses, r.iommu_apc_mean,
                r.iommu_apc_max);
    std::printf("  mean serialization      : %.1f cycles/access\n",
                r.iommu_serialization_mean);
    std::printf("  page walks              : %llu\n",
                (unsigned long long)r.page_walks);
    if (r.tlb_reach_fills || r.iommu_reach_fills || r.tlb_merges) {
        std::printf("  reach entries           : %llu fills / %llu hits "
                    "(per-CU), %llu merges, %llu coalesced\n",
                    (unsigned long long)r.tlb_reach_fills,
                    (unsigned long long)r.tlb_reach_hits,
                    (unsigned long long)r.tlb_merges,
                    (unsigned long long)r.iommu_coalesced_fills);
    }
    if (r.large_page_walks) {
        std::printf("  2MB-leaf walks          : %llu\n",
                    (unsigned long long)r.large_page_walks);
    }
    if (r.victima_stashes || r.victima_probes) {
        std::printf("  victima stash           : %llu stashes, %llu "
                    "probes, %llu hits\n",
                    (unsigned long long)r.victima_stashes,
                    (unsigned long long)r.victima_probes,
                    (unsigned long long)r.victima_hits);
    }
    if (r.tlb_fill_bypasses || r.iommu_fill_bypasses) {
        std::printf("  fill bypasses           : %llu per-CU, %llu "
                    "IOMMU\n",
                    (unsigned long long)r.tlb_fill_bypasses,
                    (unsigned long long)r.iommu_fill_bypasses);
    }
    if (r.tlb_dead_first_evictions || r.iommu_dead_first_evictions) {
        std::printf("  dead-first evictions    : %llu per-CU, %llu "
                    "IOMMU\n",
                    (unsigned long long)r.tlb_dead_first_evictions,
                    (unsigned long long)r.iommu_dead_first_evictions);
    }
    if (r.tlb_pred_true_pos || r.tlb_pred_false_pos ||
        r.iommu_pred_true_pos || r.iommu_pred_false_pos) {
        std::printf("  dead-pred samples       : per-CU %llu dead / "
                    "%llu reused, IOMMU %llu / %llu\n",
                    (unsigned long long)r.tlb_pred_true_pos,
                    (unsigned long long)r.tlb_pred_false_pos,
                    (unsigned long long)r.iommu_pred_true_pos,
                    (unsigned long long)r.iommu_pred_false_pos);
    }
    if (r.fbt_lookups) {
        std::printf("  FBT lookups             : %llu (second-level "
                    "TLB hit %.1f%%)\n",
                    (unsigned long long)r.fbt_lookups,
                    100.0 * r.fbt_second_level_hit_ratio);
        std::printf("  FBT resident pages      : %llu (purges %llu)\n",
                    (unsigned long long)r.fbt_valid_pages,
                    (unsigned long long)r.fbt_purges);
        std::printf("  synonym replays/faults  : %llu / %llu\n",
                    (unsigned long long)r.synonym_replays,
                    (unsigned long long)r.rw_faults);
    }
    if (!r.kernels.empty()) {
        std::printf("per-kernel (deltas between boundaries)\n");
        std::printf("  %3s %12s %12s %12s %10s %8s %8s\n", "k",
                    "cycles", "instructions", "iommu_acc", "walks",
                    "l1hit%", "l2hit%");
        for (std::size_t k = 0; k < r.kernels.size(); ++k) {
            const KernelStats &ks = r.kernels[k];
            const double l1 =
                ks.l1_accesses
                    ? 100.0 * double(ks.l1_hits) / double(ks.l1_accesses)
                    : 0.0;
            const double l2 =
                ks.l2_accesses
                    ? 100.0 * double(ks.l2_hits) / double(ks.l2_accesses)
                    : 0.0;
            std::printf("  %3zu %12llu %12llu %12llu %10llu %7.1f%% "
                        "%7.1f%%\n",
                        k, (unsigned long long)ks.exec_ticks,
                        (unsigned long long)ks.instructions,
                        (unsigned long long)ks.iommu_accesses,
                        (unsigned long long)ks.page_walks, l1, l2);
        }
    }
    if (opt.dump_stats) {
        std::printf("statistics registry\n%s", stats_dump.c_str());
    }
    std::printf("energy estimate (illustrative)\n");
    std::printf("  translation / caches / DRAM : %.0f / %.0f / %.0f "
                "nJ\n",
                e.translation_nj, e.cache_nj, e.dram_nj);
    return 0;
}
